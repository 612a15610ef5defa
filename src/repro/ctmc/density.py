"""Passage-time densities and quantiles.

The paper cites the Imperial PEPA Compiler (ipc) for "derivation of
passage-time densities in PEPA models"; this module provides the same
measures natively:

* the passage-time **density** through the absorbing-chain construction
  — ``f(t) = π_N(t) · Q_NT · 1``, the probability flux from the
  not-yet-arrived states into the target set;
* **quantiles** ("the 95th percentile of response time") by bisection
  on the CDF;
* **moments** via the recursive linear systems
  ``Q_NN m_k = -k · m_{k-1}`` (mean, variance, ...).

These are the quantitative service-level questions a design
environment gets asked about a mobile application.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from repro.ctmc.chain import CTMC
from repro.ctmc.passage import _absorbing_chain, _entry_arcs, _target_mask, passage_time_cdf
from repro.exceptions import SolverError

__all__ = ["passage_time_density", "passage_time_quantile", "passage_time_moments"]


def passage_time_density(
    chain: CTMC, source: int, targets: list[int] | np.ndarray, times: np.ndarray
) -> np.ndarray:
    """``f(t)`` of the first-passage time at each requested time.

    Computed as the entry flux into the (absorbing) target set:
    ``f(t) = Σ_{i∉T, j∈T} p_i(t) q_ij`` with ``p(t)`` the transient
    distribution of the chain with targets absorbed.
    """
    from repro.ctmc.transient import transient_distribution

    mask = _target_mask(chain, targets)
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise SolverError("times must be non-negative")
    if mask[source]:
        return np.zeros_like(times)
    absorbed = _absorbing_chain(chain, mask, source)
    # flux vector: for each non-target state, its total rate into T
    src, rates = _entry_arcs(chain, mask)
    flux = np.bincount(src, weights=rates, minlength=chain.n_states)
    out = np.empty(len(times))
    for k, t in enumerate(times):
        dist = transient_distribution(absorbed, float(t), source)
        out[k] = float(dist @ flux)
    return out


def passage_time_quantile(
    chain: CTMC,
    source: int,
    targets: list[int] | np.ndarray,
    probability: float,
    *,
    tolerance: float = 1e-6,
    max_iterations: int = 200,
) -> float:
    """The time ``t`` with ``P[T_hit ≤ t] = probability``, by bisection.

    Raises if the passage is not almost-surely finite enough to reach
    the requested probability within a generous horizon.
    """
    if not (0.0 < probability < 1.0):
        raise SolverError("probability must be strictly between 0 and 1")
    mask = _target_mask(chain, targets)
    if mask[source]:
        return 0.0

    def cdf(t: float) -> float:
        return float(passage_time_cdf(chain, source, np.flatnonzero(mask), np.array([t]))[0])

    # bracket the quantile
    hi = 1.0
    for _ in range(60):
        if cdf(hi) >= probability:
            break
        hi *= 2.0
    else:
        raise SolverError(
            f"P[T <= t] never reaches {probability}; are the targets reachable?"
        )
    lo = 0.0
    for _ in range(max_iterations):
        mid = 0.5 * (lo + hi)
        if hi - lo < tolerance * max(1.0, hi):
            return mid
        if cdf(mid) < probability:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def passage_time_moments(
    chain: CTMC, source: int, targets: list[int] | np.ndarray, n_moments: int = 2
) -> list[float]:
    """Raw moments ``E[Tᵏ]`` for ``k = 1..n_moments`` via the recursion
    ``Q_NN m_k = -k m_{k-1}`` (with ``m_0 = 1``)."""
    if n_moments < 1:
        raise SolverError("need at least one moment")
    mask = _target_mask(chain, targets)
    if mask[source]:
        return [0.0] * n_moments
    non_target = np.flatnonzero(~mask)
    pos = {int(s): k for k, s in enumerate(non_target)}
    Q_nn = chain.Q[non_target][:, non_target].tocsc()
    lu = spla.splu(Q_nn)
    previous = np.ones(len(non_target))
    moments: list[float] = []
    for k in range(1, n_moments + 1):
        m_k = lu.solve(-k * previous)
        if not np.all(np.isfinite(m_k)):
            raise SolverError("moment system produced non-finite values")
        moments.append(float(m_k[pos[source]]))
        previous = m_k
    return moments
