"""Steady-state solvers.

We solve the global balance equations ``πQ = 0`` with ``Σπ = 1`` by
several methods, mirroring the solver menu of the PEPA Workbench the
paper builds on, and following the HPC guide's advice to prefer
``scipy.sparse`` solvers and to pick the method by problem size:

* ``direct``  sparse LU on the normal system (exact; first in the
  default chain below :data:`~repro.resilience.fallback.GMRES_FIRST_STATES`
  states — "exact solution is an advantage");
* ``gmres``   ILU-preconditioned restarted GMRES (first in the default
  chain at or above that size, where the LU factors' fill dominates);
* ``jacobi``  damped Jacobi, the one stationary iteration (lowest
  memory footprint, the default chain's last resort).  It is a power
  iteration on the embedded jump chain, so unlike the power method on
  the uniformised chain ``I + Q/Λ`` it does not slow down as the exit
  rates spread over decades (Stewart 1994, ch. 3).

``gmres`` preconditions with ILU; when the factorisation fails it
solves unpreconditioned, and the preconditioner path actually taken is
reported through the ``info`` dict (it surfaces in the attempt records
of :class:`~repro.resilience.fallback.SolveDiagnostics`).  A
preconditioner fallback belongs there, inside the method, not in a
retry of it.

:func:`steady_state` runs the one solve path,
:func:`repro.resilience.fallback.solve_with_fallback`: ``None`` is the
size-ordered default chain, a method name a one-element policy, a
comma-separated list such as ``"direct,gmres,jacobi"`` an ordered
fallback chain, and every answer must pass the residual check
``‖πQ‖∞ ≤ 1e-6 × max exit rate``.  All methods require an irreducible
chain; hand a reducible one to :func:`steady_state` and you get a
:class:`SolverError` naming the offending structure (use
:meth:`CTMC.bottom_sccs` to analyse further).

Every solver callable takes ``(chain, tol, max_iterations, info)``;
``info`` is an optional dict the solver may write its diagnostics to.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse.linalg as spla

import time

from repro.ctmc.chain import CTMC
from repro.exceptions import SolverError
from repro.obs import get_events, get_metrics

if TYPE_CHECKING:  # pragma: no cover — typing only; the import is circular
    from repro.resilience.fallback import FallbackPolicy

__all__ = ["steady_state", "SOLVERS"]

_DEFAULT_TOL = 1e-12
_DEFAULT_MAXITER = 200_000


def steady_state(
    chain: CTMC,
    method: str | FallbackPolicy | None = None,
    *,
    tol: float = _DEFAULT_TOL,
    max_iterations: int = _DEFAULT_MAXITER,
    check_irreducible: bool = True,
    reducible: str = "error",
) -> np.ndarray:
    """The stationary distribution π of a CTMC.

    Returns a dense probability vector of length ``chain.n_states``.
    ``method`` is ``None`` (the default chain, ordered by the size of
    the chain solved), a method name, a comma-separated fallback chain
    or a :class:`~repro.resilience.fallback.FallbackPolicy`; ``tol`` and
    ``max_iterations`` apply to a policy built from a name.
    ``reducible`` and ``check_irreducible`` are those of
    :func:`~repro.resilience.fallback.solve_with_fallback`, which also
    returns the per-attempt diagnostics this function drops.
    """
    from repro.resilience.fallback import FallbackPolicy, solve_with_fallback

    policy = FallbackPolicy.of(method, tol=tol, max_iterations=max_iterations)
    pi, _ = solve_with_fallback(chain, policy, check_irreducible=check_irreducible,
                                reducible=reducible)
    return pi


def _irreducibility_failure(chain: CTMC) -> SolverError:
    """Build the reducible-chain error, naming absorbing states if any."""
    absorbing = chain.absorbing_states()
    detail = (
        f" (it has {len(absorbing)} absorbing state(s); the first is "
        f"{chain.labels[absorbing[0]] if chain.labels is not None and len(chain.labels) else absorbing[0]!r})"
        if absorbing.size
        else ""
    )
    return SolverError(
        "steady-state analysis requires an irreducible chain" + detail
    ).with_context(stage="solve")


def _normalise(pi: np.ndarray, method: str, tol: float) -> np.ndarray:
    if not np.all(np.isfinite(pi)):
        raise SolverError(f"{method} solver produced non-finite probabilities")
    # Tiny negative round-off is expected from direct solves; anything
    # materially negative means the solve failed.
    if pi.min() < -1e-8:
        raise SolverError(f"{method} solver produced negative probabilities ({pi.min():g})")
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if total <= 0:
        raise SolverError(f"{method} solver produced a zero vector")
    return pi / total


# ----------------------------------------------------------------------
# Individual methods
# ----------------------------------------------------------------------
def _balance_system(chain: CTMC):
    """``(A, b)``: ``Qᵀ π = 0`` with its last row replaced by ``Σπ = 1``,
    ``A`` in CSC form."""
    n = chain.n_states
    A = chain.Q.transpose().tocsr(copy=True).tolil()
    A[n - 1, :] = np.ones(n)
    b = np.zeros(n)
    b[n - 1] = 1.0
    return A.tocsc(), b


def _solve_direct(chain: CTMC, tol: float, max_iterations: int,
                  info: dict | None = None) -> np.ndarray:
    """Sparse LU on the :func:`_balance_system`."""
    A, b = _balance_system(chain)
    pi = spla.spsolve(A, b)
    return np.asarray(pi).ravel()


def _solve_gmres(chain: CTMC, tol: float, max_iterations: int,
                 info: dict | None = None) -> np.ndarray:
    """ILU-preconditioned restarted GMRES on the :func:`_balance_system`;
    writes the preconditioner path taken to ``info["preconditioner"]``."""
    if info is None:
        info = {}
    n = chain.n_states
    A, b = _balance_system(chain)
    try:
        ilu = spla.spilu(A, drop_tol=1e-5, fill_factor=20)
        M = spla.LinearOperator((n, n), ilu.solve)
        info["preconditioner"] = "ilu"
    except (RuntimeError, ValueError, MemoryError):
        # spilu raises RuntimeError on exactly-singular factors, but
        # near-singular or very large systems can also surface as
        # ValueError/MemoryError — an unpreconditioned solve beats a
        # crashed one in every case.
        M = None
        info["preconditioner"] = "none-fallback"
    x0 = np.full(n, 1.0 / n)
    iterations = [0]
    events = get_events()
    start = time.perf_counter() if events.enabled else 0.0

    def count_iteration(residual):
        # The legacy callback hands over the preconditioned residual norm.
        iterations[0] += 1
        if events.enabled:
            events.emit(
                "solver.convergence", solver="gmres",
                iteration=iterations[0], residual=float(residual),
                elapsed_s=round(time.perf_counter() - start, 9),
            )

    pi, code = spla.gmres(A, b, rtol=max(tol, 1e-12), maxiter=max_iterations,
                          M=M, x0=x0, callback=count_iteration,
                          restart=min(50, n), callback_type="legacy")
    if events.enabled and iterations[0] == 0:
        # scipy skips the callback when x0 already satisfies the
        # tolerance; record the solve anyway so every GMRES call
        # leaves at least one convergence event behind.
        residual = float(np.abs(b - A @ np.asarray(pi).ravel()).max())
        events.emit(
            "solver.convergence", solver="gmres", iteration=0,
            residual=residual,
            elapsed_s=round(time.perf_counter() - start, 9),
        )
    metrics = get_metrics()
    metrics.counter("solver_iterations").inc(iterations[0])
    metrics.counter("spmv_count").inc(iterations[0])
    if code != 0:
        raise SolverError(f"gmres failed to converge (info={code})")
    return np.asarray(pi).ravel()


def _solve_jacobi(chain: CTMC, tol: float, max_iterations: int,
                  info: dict | None = None) -> np.ndarray:
    """Damped Jacobi on ``πQ = 0``.

    The whole sweep is one SpMV with ``Qᵀ`` (transposed to CSR once per
    solve): the off-diagonal accumulation
    ``Σ_{j≠i} Qᵀ[i,j]·π_j`` equals ``(Qᵀπ)_i + exit_i·π_i`` because the
    diagonal of ``Q`` is ``-exit``.  Undamped Jacobi has
    iteration-matrix spectral radius 1 on this singular system and
    oscillates on cyclic chains; a relaxation factor < 1 restores
    convergence without moving the fixed point.  The sweeps start from
    the uniform vector.
    """
    omega = 0.7
    n = chain.n_states
    QT = chain.Q.transpose().tocsr()
    exits = chain.exit_rates()
    if np.any(exits == 0.0):
        raise SolverError("stationary iteration requires every state to have an exit rate")
    pi = np.full(n, 1.0 / n)
    pi /= pi.sum()
    events = get_events()
    start = time.perf_counter() if events.enabled else 0.0
    sweeps = 0
    try:
        for sweeps in range(1, max_iterations + 1):
            acc = QT @ pi + exits * pi
            new = omega * (acc / exits) + (1.0 - omega) * pi
            max_delta = float(np.abs(new - pi).max())
            pi = new
            total = pi.sum()
            if total > 0:
                pi /= total
            if events.enabled:
                events.emit(
                    "solver.convergence", solver="jacobi",
                    iteration=sweeps, residual=max_delta,
                    elapsed_s=round(time.perf_counter() - start, 9),
                )
            if max_delta < tol:
                return pi
    finally:
        metrics = get_metrics()
        metrics.counter("solver_iterations").inc(sweeps)
        metrics.counter("spmv_count").inc(sweeps)
    raise SolverError(
        f"jacobi did not converge in {max_iterations} sweeps"
    )


#: The solver registry: name → callable ``(chain, tol, max_iterations,
#: info)``.  :mod:`repro.resilience.faultinject` swaps entries
#: in and out to inject failures, so callers should look a method up at
#: call time rather than caching the callable.
SOLVERS: dict[str, Callable[..., np.ndarray]] = {
    "direct": _solve_direct,
    "gmres": _solve_gmres,
    "jacobi": _solve_jacobi,
}
