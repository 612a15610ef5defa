"""Continuous-Time Markov Chains over a sparse generator matrix.

The generator ``Q`` is a ``scipy.sparse`` CSR matrix: off-diagonal
entries are transition rates and the diagonal makes rows sum to zero
(the classic assemble-in-COO, convert-once layout).

Besides the generator the chain optionally carries:

* ``labels`` — a human-readable name per state (the PEPA derivative);
* ``action_rates`` — for each action type, the vector of total outgoing
  rates of that type per state.  This is exactly what is needed to turn
  a steady-state distribution into *activity throughput*, the measure
  the paper reflects back onto activity diagrams.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.exceptions import SolverError

__all__ = ["CTMC", "build_ctmc"]


class CTMC:
    """A finite CTMC with optional state labels and action-rate vectors."""

    def __init__(
        self,
        Q: sp.spmatrix,
        labels: list[str] | None = None,
        action_rates: dict[str, np.ndarray] | None = None,
        initial: int = 0,
    ):
        self.Q: sp.csr_matrix = sp.csr_matrix(Q)
        self.labels = list(labels or [])
        self.action_rates = dict(action_rates or {})
        self.initial = initial
        #: The derivation-cache key this chain was read from or
        #: published under (see :func:`repro.core.ctmcgen.ctmc_from_lts`).
        self.cache_key = None

        n, m = self.Q.shape
        if n != m:
            raise SolverError(f"generator must be square, got {(n, m)}")
        if self.labels and len(self.labels) != n:
            raise SolverError("label count does not match state count")

    @property
    def n_states(self) -> int:
        return self.Q.shape[0]

    def __len__(self) -> int:
        return self.n_states

    def __repr__(self) -> str:
        return f"CTMC(n_states={self.n_states}, nnz={self.Q.nnz})"

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def exit_rates(self) -> np.ndarray:
        """Total outgoing rate per state (``-diag(Q)``)."""
        return -self.Q.diagonal()

    def max_exit_rate(self) -> float:
        """The largest exit rate (the uniformization constant's floor)."""
        rates = self.exit_rates()
        return float(rates.max()) if rates.size else 0.0

    def absorbing_states(self) -> np.ndarray:
        """Indices of states with no outgoing transitions."""
        return np.flatnonzero(self.exit_rates() == 0.0)

    def is_irreducible(self) -> bool:
        """True when the chain is one strongly connected component."""
        n_comp, _ = connected_components(self.Q, directed=True, connection="strong")
        return bool(n_comp == 1)

    def strongly_connected_components(self) -> list[np.ndarray]:
        """SCCs as arrays of state indices, in component-label order."""
        n_comp, labels = connected_components(self.Q, directed=True, connection="strong")
        return [np.flatnonzero(labels == c) for c in range(n_comp)]

    def bottom_sccs(self) -> list[np.ndarray]:
        """Bottom strongly connected components (closed recurrent classes)."""
        n_comp, labels = connected_components(self.Q, directed=True, connection="strong")
        if n_comp == 1:
            return [np.arange(self.n_states)]
        coo = self.Q.tocoo()
        leaving = (coo.data > 0) & (labels[coo.row] != labels[coo.col])
        has_exit = np.zeros(n_comp, dtype=bool)
        has_exit[labels[coo.row[leaving]]] = True
        return [np.flatnonzero(labels == c) for c in np.flatnonzero(~has_exit)]

    def restricted_to(self, states: np.ndarray) -> "CTMC":
        """The sub-chain on ``states`` (rates leaving the set are dropped
        and the diagonal is rebuilt so rows sum to zero)."""
        states = np.asarray(states, dtype=np.int64)
        sub = self.Q[states][:, states].tolil()
        sub.setdiag(0.0)
        sub = sub.tocsr()
        sub.eliminate_zeros()
        diag = -np.asarray(sub.sum(axis=1)).ravel()
        gen = (sub + sp.diags(diag)).tocsr()
        labels = [self.labels[i] for i in states] if self.labels else []
        actions = {a: v[states] for a, v in self.action_rates.items()}
        return CTMC(gen, labels=labels, action_rates=actions)

    # ------------------------------------------------------------------
    # Derived chains
    # ------------------------------------------------------------------
    def uniformized(self, rate: float | None = None) -> tuple[sp.csr_matrix, float]:
        """The uniformized DTMC ``P = I + Q/Λ`` and the rate ``Λ`` used.

        ``Λ`` defaults to 1.02× the maximum exit rate (strictly above it
        so the chain is aperiodic, which the power method requires).
        """
        lam = rate if rate is not None else max(self.max_exit_rate() * 1.02, 1e-12)
        if lam < self.max_exit_rate():
            raise SolverError(
                f"uniformization rate {lam} is below the maximum exit rate "
                f"{self.max_exit_rate()}"
            )
        n = self.n_states
        P = (sp.identity(n, format="csr") + self.Q.multiply(1.0 / lam)).tocsr()
        return P, lam

    def to_coo_triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Off-diagonal (row, col, rate) triplets of the generator."""
        coo = self.Q.tocoo()
        mask = coo.row != coo.col
        return coo.row[mask], coo.col[mask], coo.data[mask]


def build_ctmc(
    n_states: int,
    transitions: list[tuple[int, str, float, int]],
    labels: list[str] | None = None,
    initial: int = 0,
) -> CTMC:
    """Assemble a CTMC from (source, action, rate, target) records.

    Parallel transitions (same endpoints, possibly different actions)
    sum, per the race condition of the multi-transition-system
    semantics.  Self-loops contribute to action throughput but cancel in
    the generator (a CTMC cannot observe them), so they are recorded in
    ``action_rates`` and omitted from ``Q``.

    The assembly is numpy-batched: one pass converts the record list to
    flat arrays, per-action totals accumulate with ``np.add.at`` and the
    off-diagonal COO matrix is built from the masked arrays directly —
    no per-transition Python arithmetic.
    """
    n_trans = len(transitions)
    src = np.empty(n_trans, dtype=np.int64)
    tgt = np.empty(n_trans, dtype=np.int64)
    rates = np.empty(n_trans, dtype=float)
    actions: list[str] = [""] * n_trans
    for k, (source, action, rate, target) in enumerate(transitions):
        src[k] = source
        actions[k] = action
        rates[k] = rate
        tgt[k] = target
    if n_trans and rates.min() <= 0:
        bad = transitions[int(np.flatnonzero(rates <= 0)[0])][2]
        raise SolverError(f"transition rate must be positive, got {bad}")

    action_rates: dict[str, np.ndarray] = {}
    order = {}
    codes = np.empty(n_trans, dtype=np.int64)
    for k, action in enumerate(actions):
        code = order.get(action)
        if code is None:
            code = order[action] = len(order)
        codes[k] = code
    for action, code in order.items():
        vec = np.zeros(n_states)
        mask = codes == code
        np.add.at(vec, src[mask], rates[mask])
        action_rates[action] = vec

    off_mask = src != tgt
    off = sp.coo_matrix(
        (rates[off_mask], (src[off_mask], tgt[off_mask])), shape=(n_states, n_states)
    ).tocsr()
    off.sum_duplicates()
    diag = -np.asarray(off.sum(axis=1)).ravel()
    Q = (off + sp.diags(diag)).tocsr()
    return CTMC(Q, labels=list(labels or []), action_rates=action_rates, initial=initial)
