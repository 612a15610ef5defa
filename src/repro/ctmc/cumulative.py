"""Cumulative (accumulated) reward measures.

Where :mod:`repro.ctmc.rewards` answers "how much per unit time, in the
long run", these answer "how much in total over [0, t]" and "how much
until absorption":

* ``E[∫₀ᵗ r(X_s) ds]`` — expected accumulated state reward over a
  finite horizon, by uniformization of the joint (distribution,
  accumulator) recursion;
* expected total reward until hitting a target set — the absorbing-
  chain linear system (e.g. *energy consumed per handover cycle* for
  the PDA model, battery life being the mobile-device concern the
  paper's introduction raises).
"""

from __future__ import annotations

import math

import numpy as np

from repro.ctmc.chain import CTMC
from repro.ctmc.steady import sparse_lu
from repro.ctmc.transient import _initial_vector
from repro.exceptions import SolverError

__all__ = ["accumulated_reward", "reward_to_absorption", "time_average_reward"]


def accumulated_reward(
    chain: CTMC,
    t: float,
    rewards: np.ndarray,
    initial: np.ndarray | int | None = None,
    *,
    epsilon: float = 1e-12,
) -> float:
    """``E[∫₀ᵗ r(X_s) ds]`` by uniformization.

    Uses the standard identity: with ``P = I + Q/Λ`` and Poisson
    weights ``β_k(Λt)``, the integral equals
    ``(1/Λ) Σ_k  [1 - F_k(Λt)] · (π₀ Pᵏ) · r`` where ``F_k`` is the
    Poisson CDF — i.e. each jump epoch contributes the expected reward
    of the state occupied there, weighted by the expected time spent.
    """
    rewards = np.asarray(rewards, dtype=float)
    if rewards.shape != (chain.n_states,):
        raise SolverError(f"reward vector must have shape ({chain.n_states},)")
    if t < 0:
        raise SolverError("time must be non-negative")
    if t == 0.0:
        return 0.0
    pi0 = _initial_vector(chain, initial)
    P, lam = chain.uniformized()
    PT = P.transpose().tocsr()
    mean = lam * t
    # ∫₀ᵗ β_k(Λs) ds = (1 - F_k(Λt)) / Λ with F_k the Poisson CDF, so
    # acc = Σ_k (1 - F_k) · (π₀ Pᵏ) · r, iterating pmf/cdf in log space.
    log_p = -mean
    cdf = math.exp(log_p)
    vec = pi0
    acc = (1.0 - cdf) * float(vec @ rewards)  # k = 0
    k = 0
    limit = int(mean + 20 * math.sqrt(mean) + 50)
    while (1.0 - cdf) > epsilon and k < limit:
        k += 1
        vec = PT @ vec
        log_p += math.log(mean / k)
        cdf += math.exp(log_p)
        acc += (1.0 - cdf) * float(vec @ rewards)
    return acc / lam


def reward_to_absorption(
    chain: CTMC,
    targets: list[int] | np.ndarray,
    rewards: np.ndarray,
    source: int | None = None,
) -> float | np.ndarray:
    """Expected total reward accumulated before first hitting the
    target set: solve ``Q_NN m = -r_N`` over non-target states.

    With unit rewards this is the mean passage time; with power-draw
    rewards it is e.g. the energy spent per cycle.  Returns the value
    for ``source``, or the full vector over non-target states when
    ``source`` is ``None``.
    """
    rewards = np.asarray(rewards, dtype=float)
    if rewards.shape != (chain.n_states,):
        raise SolverError(f"reward vector must have shape ({chain.n_states},)")
    mask = np.zeros(chain.n_states, dtype=bool)
    idx = np.asarray(list(targets), dtype=np.int64)
    if idx.size == 0:
        raise SolverError("target set must be non-empty")
    mask[idx] = True
    if source is not None and mask[source]:
        return 0.0
    non_target = np.flatnonzero(~mask)
    Q_nn = chain.Q[non_target][:, non_target].tocsc()
    rhs = -rewards[non_target]
    m = sparse_lu(Q_nn).solve(rhs)
    if not np.all(np.isfinite(m)):
        raise SolverError("reward-to-absorption solve produced non-finite values")
    if source is None:
        return m
    pos = int(np.flatnonzero(non_target == source)[0])
    return float(m[pos])


def time_average_reward(
    chain: CTMC, t: float, rewards: np.ndarray, initial: np.ndarray | int | None = None
) -> float:
    """``E[∫₀ᵗ r ds] / t`` — converges to the steady-state expectation
    as ``t`` grows (a property the tests exploit)."""
    if t <= 0:
        raise SolverError("time must be positive")
    return accumulated_reward(chain, t, rewards, initial) / t
