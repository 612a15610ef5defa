"""Passage-time measures.

The Tomcat experiment of the paper quantifies its optimisation "in terms
of the reduction in the delay spent waiting for the response from the
server".  Two complementary formulations are provided:

* **mean first-passage time** into a target set from a start state —
  solve ``Q_NN · m = -1`` over the non-target states (the classic
  absorbing-chain argument);
* **mean residence delay per visit** of a state set in steady state —
  by the renewal-reward theorem the mean time spent in set ``A`` per
  entry is ``π(A) / (entry flux into A)``, the natural "waiting delay"
  measure for a recurring request/response cycle.

Both are exact, sparse, and O(solve) — no simulation needed.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.ctmc.chain import CTMC, generator
from repro.ctmc.steady import sparse_lu, steady_state
from repro.exceptions import SolverError

__all__ = [
    "mean_passage_time",
    "passage_time_cdf",
    "mean_time_per_visit",
    "visit_frequency",
]


def _target_mask(chain: CTMC, targets: Iterable[int]) -> np.ndarray:
    mask = np.zeros(chain.n_states, dtype=bool)
    idx = np.fromiter(targets, dtype=np.int64)
    if idx.size == 0:
        raise SolverError("target set must be non-empty")
    if idx.min() < 0 or idx.max() >= chain.n_states:
        raise SolverError("target state index out of range")
    mask[idx] = True
    return mask


def mean_passage_time(chain: CTMC, source: int, targets: Iterable[int]) -> float:
    """Expected time to first reach any state in ``targets`` from
    ``source``.  Zero if the source is itself a target."""
    mask = _target_mask(chain, targets)
    if mask[source]:
        return 0.0
    non_target = np.flatnonzero(~mask)
    pos = {int(s): k for k, s in enumerate(non_target)}
    Q_nn = chain.Q[non_target][:, non_target].tocsc()
    rhs = -np.ones(len(non_target))
    m = sparse_lu(Q_nn).solve(rhs)  # singular when some state cannot reach a target
    if not np.all(np.isfinite(m)) or np.any(m < -1e-9):
        raise SolverError(
            "passage-time solve produced invalid times; are the targets "
            "reachable from every non-target state?"
        )
    return float(m[pos[source]])


def passage_time_cdf(
    chain: CTMC, source: int, targets: Iterable[int], times: np.ndarray
) -> np.ndarray:
    """``P[T_hit <= t]`` for each ``t``: make targets absorbing and run
    transient analysis (uniformization) on the modified chain."""
    from repro.ctmc.transient import transient_distribution

    mask = _target_mask(chain, targets)
    times = np.asarray(times, dtype=float)
    if mask[source]:
        return np.ones_like(times)
    absorbed = _absorbing_chain(chain, mask, source)
    out = np.empty(len(times))
    for i, t in enumerate(np.sort(times)):
        dist = transient_distribution(absorbed, float(t), source)
        out[i] = dist[mask].sum()
    order = np.argsort(np.argsort(times))
    return out[order]


def _absorbing_chain(chain: CTMC, mask: np.ndarray, initial: int) -> CTMC:
    """``chain`` with the states in ``mask`` made absorbing."""
    src, tgt, rates = chain.to_coo_triplets()
    live = ~mask[src]
    return CTMC(generator(chain.n_states, src[live], tgt[live], rates[live]),
                initial=initial)


def _entry_arcs(chain: CTMC, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(source, rate)`` of the arcs entering the set, in CSR order."""
    src, tgt, rates = chain.to_coo_triplets()
    entering = ~mask[src] & mask[tgt]
    return src[entering], rates[entering]


def visit_frequency(chain: CTMC, states: Iterable[int], pi: np.ndarray | None = None) -> float:
    """Steady-state entry flux into the set: the rate of transitions
    from outside the set to inside it (entries per time unit)."""
    mask = _target_mask(chain, states)
    if pi is None:
        pi = steady_state(chain)
    src, rates = _entry_arcs(chain, mask)
    # Left to right: not numpy's pairwise nor Python 3.12's compensated sum.
    flux = 0.0
    for term in (pi[src] * rates).tolist():
        flux += term
    return flux


def mean_time_per_visit(chain: CTMC, states: Iterable[int], pi: np.ndarray | None = None) -> float:
    """Mean sojourn time in the set per entry (renewal-reward):
    ``π(set) / entry-flux``.

    For the web model this is exactly "the delay spent waiting for the
    response" per request when applied to the client's WaitForResponse
    states.
    """
    mask = _target_mask(chain, states)
    if pi is None:
        pi = steady_state(chain)
    flux = visit_frequency(chain, np.flatnonzero(mask), pi)
    if flux <= 0:
        raise SolverError("the set is never entered in steady state")
    return float(pi[mask].sum() / flux)
