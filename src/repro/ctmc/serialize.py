"""Exact round-trip serialisation of CTMCs to plain arrays.

The derivation cache (:mod:`repro.batch.cache`) persists generators on
disk and the batch engine ships chains between worker processes; both
need a representation that is (a) exact — the cached steady-state solve
must be bit-identical to the fresh one — and (b) independent of scipy's
internal sparse classes, so a cache written by one scipy version loads
under another.

The ``repro-ctmc/1`` schema stores the CSR triple (``data``,
``indices``, ``indptr``) plus the shape, which *is* the generator,
exactly.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.ctmc.chain import CTMC

__all__ = ["CTMC_PAYLOAD_SCHEMA", "ctmc_to_payload", "ctmc_from_payload"]

#: Schema tag of generator payloads; bump on incompatible changes.
CTMC_PAYLOAD_SCHEMA = "repro-ctmc/1"


def ctmc_to_payload(chain: CTMC) -> dict[str, Any]:
    """A plain-dict rendering of ``chain`` (CSR arrays)."""
    Q = chain.Q
    return {
        "schema": CTMC_PAYLOAD_SCHEMA,
        "shape": [int(Q.shape[0]), int(Q.shape[1])],
        "data": np.asarray(Q.data, dtype=np.float64),
        "indices": np.asarray(Q.indices, dtype=np.int64),
        "indptr": np.asarray(Q.indptr, dtype=np.int64),
        "labels": list(chain.labels),
        "action_rates": {
            action: np.asarray(vec, dtype=np.float64)
            for action, vec in chain.action_rates.items()
        },
        "initial": int(chain.initial),
    }


def ctmc_from_payload(payload: dict[str, Any]) -> CTMC:
    """Rebuild the exact CTMC serialised by :func:`ctmc_to_payload`."""
    schema = payload.get("schema")
    if schema != CTMC_PAYLOAD_SCHEMA:
        raise ValueError(
            f"not a {CTMC_PAYLOAD_SCHEMA} payload: schema={schema!r}"
        )
    shape = tuple(payload["shape"])
    Q = sp.csr_matrix(
        (payload["data"], payload["indices"], payload["indptr"]), shape=shape
    )
    return CTMC(
        Q,
        labels=list(payload["labels"]),
        action_rates={a: np.asarray(v) for a, v in payload["action_rates"].items()},
        initial=int(payload.get("initial", 0)),
    )
