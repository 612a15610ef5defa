"""Continuous-Time Markov Chains over a sparse generator matrix.

The generator ``Q`` is a ``scipy.sparse`` CSR matrix: off-diagonal
entries are transition rates and the diagonal makes rows sum to zero.
:func:`generator` builds every generator in the package from arc arrays.

Besides the generator the chain optionally carries:

* ``labels`` — a human-readable name per state (the PEPA derivative),
  given as a list or as a function that renders it on first access;
* ``action_rates`` — for each action type, the vector of total outgoing
  rates of that type per state.  This is exactly what is needed to turn
  a steady-state distribution into *activity throughput*, the measure
  the paper reflects back onto activity diagrams.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.exceptions import SolverError

__all__ = ["CTMC", "assemble_ctmc", "build_ctmc", "generator", "record_arrays"]

#: State labels, or a function rendering them when first read.
Labels = Sequence[str] | Callable[[], Sequence[str]] | None


class CTMC:
    """A finite CTMC with optional state labels and action-rate vectors.

    ``labels`` given as a function is called on the first read of
    :attr:`labels` (:attr:`label_builds` counts the calls, 0 or 1), so a
    chain whose measures never name a state renders none.
    """

    def __init__(
        self,
        Q: sp.spmatrix,
        labels: Labels = None,
        action_rates: dict[str, np.ndarray] | None = None,
        initial: int = 0,
    ):
        self.Q: sp.csr_matrix = sp.csr_matrix(Q)
        self._labels: list[str] | None = None
        self._render_labels: Callable[[], Sequence[str]] | None = None
        if callable(labels):
            self._render_labels = labels
        else:
            self._set_labels(labels)
        #: How many times the labels have been rendered (0 or 1).
        self.label_builds = 0
        self.action_rates = dict(action_rates or {})
        self.initial = initial
        #: The derivation-cache key this chain was read from or
        #: published under (see :func:`repro.core.ctmcgen.ctmc_from_lts`).
        self.cache_key = None

        n, m = self.Q.shape
        if n != m:
            raise SolverError(f"generator must be square, got {(n, m)}")

    def _set_labels(self, labels: Sequence[str] | None) -> None:
        labels = list(labels or [])
        if labels and len(labels) != self.Q.shape[0]:
            raise SolverError("label count does not match state count")
        self._labels = labels

    @property
    def labels(self) -> list[str]:
        """A human-readable name per state, or ``[]``."""
        if self._labels is None:
            self._set_labels(self._render_labels())
            self._render_labels = None
            self.label_builds += 1
        return self._labels

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

    def bottom_sccs(self) -> list[np.ndarray]:
        """Bottom strongly connected components (closed recurrent classes)."""
        n_comp, labels = connected_components(self.Q, directed=True, connection="strong")
        if n_comp == 1:
            return [np.arange(self.n_states)]
        src, tgt, _ = self.to_coo_triplets()
        has_exit = np.zeros(n_comp, dtype=bool)
        has_exit[labels[src[labels[src] != labels[tgt]]]] = True
        return [np.flatnonzero(labels == c) for c in np.flatnonzero(~has_exit)]

    def restricted_to(self, states: np.ndarray) -> "CTMC":
        """The sub-chain on ``states`` (rates leaving the set are dropped
        and the diagonal is rebuilt so rows sum to zero): the
        :func:`generator` of the arcs with both ends in the set, state
        ``states[k]`` renumbered ``k``."""
        states = np.asarray(states, dtype=np.int64)
        position = np.full(self.n_states, -1, dtype=np.int64)
        position[states] = np.arange(len(states))
        src, tgt, rates = self.to_coo_triplets()
        src, tgt = position[src], position[tgt]
        inside = (src >= 0) & (tgt >= 0)
        gen = generator(len(states), src[inside], tgt[inside], rates[inside])

        def labels() -> list[str]:
            full = self.labels
            return [full[i] for i in states] if full else []

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
        """The transitions as (row, col, rate) arrays: the off-diagonal
        entries of ``Q`` with a positive rate, in CSR order."""
        rows = _rows(self.Q)
        mask = (rows != self.Q.indices) & (self.Q.data > 0)
        return rows[mask], self.Q.indices[mask], self.Q.data[mask]


def _rows(Q: sp.csr_matrix) -> np.ndarray:
    """The row of each stored entry of ``Q``, in CSR order."""
    return np.repeat(np.arange(Q.shape[0]), np.diff(Q.indptr))


def generator(n: int, source: np.ndarray, target: np.ndarray,
              rates: np.ndarray) -> sp.csr_matrix:
    """The ``n``-state generator of the arcs ``source[k] → target[k]`` at
    ``rates[k]``: self-loops dropped, parallel arcs summed (scipy's COO →
    CSR), and minus each row sum (the ``np.add.reduceat`` of
    ``csr_matrix.sum(axis=1)``) inserted in the index arrays as the
    diagonal, omitted where zero.  Bit for bit the CSR of adding
    ``diags`` of that sum, but built once."""
    off = source != target
    Q = sp.csr_matrix((rates[off], (source[off], target[off])), shape=(n, n))
    filled = np.flatnonzero(np.diff(Q.indptr))
    diag = np.zeros(n)
    diag[filled] = -np.add.reduceat(Q.data, Q.indptr[filled])
    at = np.flatnonzero(diag)
    # Rows are sorted, so the row-major key is too.
    place = np.searchsorted(_rows(Q) * n + Q.indices, at * (n + 1))
    return sp.csr_matrix(
        (np.insert(Q.data, place, diag[at]), np.insert(Q.indices, place, at),
         Q.indptr + np.concatenate(([0], np.cumsum(diag != 0)))),
        shape=(n, n),
    )


def build_ctmc(
    n_states: int,
    transitions: Iterable[tuple[int, str, float, int]],
    labels: Labels = None,
    initial: int = 0,
) -> CTMC:
    """Assemble a CTMC from (source, action, rate, target) records:
    :func:`assemble_ctmc` on their :func:`record_arrays`."""
    return assemble_ctmc(n_states, *record_arrays(transitions), labels=labels,
                         initial=initial)


def record_arrays(
    records: Iterable[tuple[int, str, float, int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[str, ...]]:
    """``(source, action, rate, target)`` records as the parallel arrays
    :func:`assemble_ctmc` takes: source, target, rate, action code, and
    the action names in order of first appearance."""
    source, target, rates, codes = [], [], [], []
    order: dict[str, int] = {}
    for src, action, rate, tgt in records:
        code = order.get(action)
        if code is None:
            code = order[action] = len(order)
        source.append(src)
        target.append(tgt)
        rates.append(rate)
        codes.append(code)
    return (np.array(source, dtype=np.int64), np.array(target, dtype=np.int64),
            np.array(rates, dtype=np.float64), np.array(codes, dtype=np.int64),
            tuple(order))


def assemble_ctmc(
    n_states: int,
    source: np.ndarray,
    target: np.ndarray,
    rates: np.ndarray,
    codes: np.ndarray,
    actions: Sequence[str],
    *,
    labels: Labels = None,
    initial: int = 0,
) -> CTMC:
    """Assemble a CTMC from parallel arc arrays: arc ``k`` goes from
    ``source[k]`` to ``target[k]`` at ``rates[k]``, labelled
    ``actions[codes[k]]``.

    Parallel transitions (same endpoints, possibly different actions)
    sum, per the race condition of the multi-transition-system
    semantics.  Self-loops contribute to action throughput but cancel in
    the generator (a CTMC cannot observe them), so they are recorded in
    ``action_rates`` and omitted from ``Q``.  ``action_rates`` lists the
    action types in the order of ``actions``.

    The assembly is numpy-batched: per-action totals accumulate with
    ``np.add.at`` and ``Q`` is the :func:`generator` of the arrays — no
    per-transition Python arithmetic.
    """
    if len(rates) and rates.min() <= 0:
        bad = rates[int(np.flatnonzero(rates <= 0)[0])]
        raise SolverError(f"transition rate must be positive, got {bad}")

    action_rates: dict[str, np.ndarray] = {}
    for code, action in enumerate(actions):
        vec = np.zeros(n_states)
        mask = codes == code
        np.add.at(vec, source[mask], rates[mask])
        action_rates[action] = vec

    return CTMC(generator(n_states, source, target, rates), labels=labels,
                action_rates=action_rates, initial=initial)
