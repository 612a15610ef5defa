"""Sensitivity of steady-state measures to model rates.

A design environment should tell the modeller not only *what* the
throughput is but *which rate to tune*: the derivative of a measure
with respect to each rate parameter.  For a CTMC with generator
``Q(θ)``, the stationary-distribution derivative solves the augmented
system::

    (∂π/∂θ) Q = -π (∂Q/∂θ),   Σ ∂π/∂θ = 0

which is one extra sparse solve per parameter, with the same
factorisation-friendly structure as the steady-state system.  The
derivative of a linear measure ``m = π·r(θ)`` follows by the product
rule.

For the PEPA layer we expose :func:`throughput_sensitivity`, which
perturbs a named action's rates; a finite-difference cross-check is
part of the test suite.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.ctmc.chain import CTMC
from repro.ctmc.steady import _balance_system, steady_state
from repro.exceptions import SolverError

__all__ = ["stationary_derivative", "measure_sensitivity"]


def stationary_derivative(chain: CTMC, dQ: sp.spmatrix, pi: np.ndarray | None = None) -> np.ndarray:
    """``∂π/∂θ`` for a generator perturbation direction ``dQ``.

    ``dQ`` must have zero row sums (a valid generator derivative).
    """
    if pi is None:
        pi = steady_state(chain)
    dQ = sp.csr_matrix(dQ)
    if dQ.shape != chain.Q.shape:
        raise SolverError(f"dQ shape {dQ.shape} does not match the generator")
    row_sums = np.asarray(dQ.sum(axis=1)).ravel()
    if not np.allclose(row_sums, 0.0, atol=1e-9):
        raise SolverError("dQ must have zero row sums (generator derivative)")
    # Solve x Q = -pi dQ with the normalisation Σx = 0: the steady-state
    # solver's balance system with another right-hand side.
    A, _ = _balance_system(chain)
    b = np.asarray(-(pi @ dQ)).ravel()
    b[-1] = 0.0  # Σ dπ = 0
    x = spla.spsolve(A, b)
    return np.asarray(x).ravel()


def measure_sensitivity(
    chain: CTMC,
    dQ: sp.spmatrix,
    rewards: np.ndarray,
    d_rewards: np.ndarray | None = None,
    pi: np.ndarray | None = None,
) -> float:
    """``d(π·r)/dθ = (∂π/∂θ)·r + π·(∂r/∂θ)``."""
    if pi is None:
        pi = steady_state(chain)
    rewards = np.asarray(rewards, dtype=float)
    dpi = stationary_derivative(chain, dQ, pi)
    value = float(dpi @ rewards)
    if d_rewards is not None:
        value += float(pi @ np.asarray(d_rewards, dtype=float))
    return value


