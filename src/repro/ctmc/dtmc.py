"""Embedded DTMC of a CTMC, and basic DTMC analysis.

The embedded (jump) chain ``P_ij = q_ij / q_i`` observes the CTMC at
transition instants.  Its stationary vector relates to the CTMC's by
the sojourn-time reweighting ``π_i ∝ ν_i / q_i``; both directions are
provided and tested against each other — a useful cross-check for the
solver suite.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.ctmc.chain import CTMC
from repro.exceptions import SolverError

__all__ = ["embedded_dtmc", "dtmc_stationary", "ctmc_pi_from_embedded"]


def embedded_dtmc(chain: CTMC) -> sp.csr_matrix:
    """The jump-chain transition matrix.  Absorbing CTMC states get a
    self-loop (probability 1), the usual convention."""
    exit_rates = chain.exit_rates()
    src, tgt, rates = chain.to_coo_triplets()
    absorbing = np.flatnonzero(exit_rates == 0.0)
    return sp.csr_matrix(
        (np.concatenate([rates / exit_rates[src], np.ones(absorbing.size)]),
         (np.concatenate([src, absorbing]), np.concatenate([tgt, absorbing]))),
        shape=(chain.n_states, chain.n_states),
    )


def dtmc_stationary(P: sp.csr_matrix, *, tol: float = 1e-13, max_iterations: int = 500_000) -> np.ndarray:
    """Stationary vector of an irreducible DTMC by damped power
    iteration (damping makes periodic chains converge in Cesàro mean)."""
    n = P.shape[0]
    if P.shape[0] != P.shape[1]:
        raise SolverError("transition matrix must be square")
    PT = P.transpose().tocsr()
    nu = np.full(n, 1.0 / n)
    # Small damping handles periodicity without changing the fixed point.
    alpha = 0.9
    for _ in range(max_iterations):
        nxt = alpha * (PT @ nu) + (1 - alpha) * nu
        total = nxt.sum()
        if total <= 0:
            raise SolverError("power iteration collapsed to zero")
        nxt /= total
        if np.abs(nxt - nu).max() < tol:
            return nxt
        nu = nxt
    raise SolverError(f"DTMC power iteration did not converge in {max_iterations} steps")


def ctmc_pi_from_embedded(chain: CTMC, nu: np.ndarray | None = None) -> np.ndarray:
    """Recover the CTMC stationary vector from the embedded chain's:
    ``π_i ∝ ν_i / q_i``."""
    if nu is None:
        nu = dtmc_stationary(embedded_dtmc(chain))
    exit_rates = chain.exit_rates()
    if np.any(exit_rates == 0.0):
        raise SolverError("the CTMC has absorbing states; no stationary distribution")
    pi = nu / exit_rates
    return pi / pi.sum()
