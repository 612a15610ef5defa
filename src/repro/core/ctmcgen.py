"""The one LTS → CTMC assembly path.

Treating the explored LTS as a CTMC — each state a chain state, rates
of parallel arcs between the same pair summing under the race condition
— is identical across formalisms, so both the PEPA route
(:func:`repro.pepa.ctmcgen.ctmc_from_statespace`, which now delegates
here) and the GSPN route (:func:`repro.petri.gspn.spn_to_ctmc`) feed
the LTS's arc arrays to :func:`repro.ctmc.chain.assemble_ctmc` through
this single function.  The chain's state labels are rendered from the
LTS only when something reads them.
"""

from __future__ import annotations

from repro.core.lts import Lts
from repro.ctmc.chain import CTMC, assemble_ctmc
from repro.ctmc.serialize import (
    CTMC_PAYLOAD_SCHEMA, ctmc_from_payload, ctmc_to_payload,
)
from repro.obs import get_tracer

__all__ = ["ctmc_from_lts"]


def ctmc_from_lts(lts: Lts) -> CTMC:
    """Build the CTMC (generator + action-rate vectors, labels on
    demand) of an explored LTS, under a ``ctmc.assemble`` tracer span.

    An LTS that came through the derivation cache carries its
    :class:`~repro.core.keys.DerivationKey` as ``cache_key``; the
    assembled generator is then cached too, through
    :func:`repro.batch.cache.cached` under the ``"ctmc"`` child of that
    key, serialised via :mod:`repro.ctmc.serialize` — so a fully cached
    analysis skips both exploration *and* assembly.
    """
    key = lts.cache_key
    if key is None:
        return _assemble(lts)
    # Imported here: repro.batch.cache imports repro.core, this package.
    from repro.batch.cache import cached

    return cached(
        lambda: key.child("ctmc"), CTMC_PAYLOAD_SCHEMA, lambda: _assemble(lts),
        encode=ctmc_to_payload, decode=ctmc_from_payload,
    )


def _assemble(lts: Lts) -> CTMC:
    with get_tracer().span("ctmc.assemble", states=lts.size,
                           arcs=lts.n_arcs) as sp:
        arcs = lts.arc_arrays
        chain = assemble_ctmc(
            lts.size, arcs.source, arcs.target, arcs.rate, arcs.action, arcs.actions,
            labels=lts.state_labels, initial=lts.initial,
        )
        sp.set(nnz=int(chain.Q.nnz))
    return chain
