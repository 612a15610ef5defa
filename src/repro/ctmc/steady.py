"""Steady-state solvers.

We solve the global balance equations ``πQ = 0`` with ``Σπ = 1`` by
several methods, mirroring the solver menu of the PEPA Workbench the
paper builds on, and following the HPC guide's advice to prefer
``scipy.sparse`` solvers and to pick the method by problem size:

* ``direct``        sparse LU on the normal system (exact, the default
  for small/medium chains — "exact solution is an advantage");
* ``gmres`` / ``bicgstab``  preconditioned Krylov iterations for large
  chains;
* ``power``         power iteration on the uniformized DTMC (lowest
  memory footprint, tolerant of very large state spaces);
* ``jacobi``        damped Jacobi, the classical stationary iteration,
  kept as a baseline for the solver benchmark.

The Krylov methods precondition with ILU; when the factorisation
fails they solve unpreconditioned, and the preconditioner path actually
taken is reported through the ``options["info"]`` dict (it surfaces in
the attempt records of
:class:`~repro.resilience.fallback.SolveDiagnostics`).

:func:`steady_state` runs the one solve path,
:func:`repro.resilience.fallback.solve_with_fallback`: a method name is
a one-element policy, a comma-separated list such as
``"direct,gmres,power"`` an ordered fallback chain, and every answer
must pass the residual check ``‖πQ‖∞ ≤ 1e-6 × max exit rate``.  All
methods require an irreducible chain; hand a reducible one to
:func:`steady_state` and you get a :class:`SolverError` naming the
offending structure (use :meth:`CTMC.bottom_sccs` to analyse further).

Every solver callable takes ``(chain, tol, max_iterations, options)``;
``options`` carries per-attempt hints (``x0``, ``ilu_drop_tol``,
``ilu_fill_factor``) that the retry layer uses to perturb the starting
vector and relax the preconditioner between attempts.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
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
    method: str | FallbackPolicy = "direct",
    *,
    tol: float = _DEFAULT_TOL,
    max_iterations: int = _DEFAULT_MAXITER,
    check_irreducible: bool = True,
    reducible: str = "error",
) -> np.ndarray:
    """The stationary distribution π of a CTMC.

    Returns a dense probability vector of length ``chain.n_states``.
    ``method`` is a method name, a comma-separated fallback chain or a
    :class:`~repro.resilience.fallback.FallbackPolicy`; ``tol`` and
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
def _solve_direct(chain: CTMC, tol: float, max_iterations: int,
                  options: Mapping | None = None) -> np.ndarray:
    """Sparse LU on ``Qᵀ π = 0`` with one row replaced by ``Σπ = 1``."""
    n = chain.n_states
    A = chain.Q.transpose().tocsr(copy=True).tolil()
    A[n - 1, :] = np.ones(n)
    b = np.zeros(n)
    b[n - 1] = 1.0
    pi = spla.spsolve(A.tocsc(), b)
    return np.asarray(pi).ravel()


_KRYLOV_FNS = {
    "gmres": spla.gmres,
    "bicgstab": spla.bicgstab,
}


def _krylov(name: str) -> Callable[..., np.ndarray]:
    def solve(chain: CTMC, tol: float, max_iterations: int,
              options: Mapping | None = None) -> np.ndarray:
        options = options or {}
        info_out = options.get("info")
        if not isinstance(info_out, dict):
            info_out = {}
        n = chain.n_states
        b = np.zeros(n)
        b[n - 1] = 1.0
        A = chain.Q.transpose().tocsr(copy=True).tolil()
        A[n - 1, :] = np.ones(n)
        A = A.tocsc()
        try:
            ilu = spla.spilu(
                A,
                drop_tol=options.get("ilu_drop_tol", 1e-5),
                fill_factor=options.get("ilu_fill_factor", 20),
            )
            M = spla.LinearOperator((n, n), ilu.solve)
            info_out["preconditioner"] = "ilu"
        except (RuntimeError, ValueError, MemoryError):
            # spilu raises RuntimeError on exactly-singular factors, but
            # near-singular or very large systems can also surface as
            # ValueError/MemoryError — an unpreconditioned solve beats a
            # crashed one in every case.
            M = None
            info_out["preconditioner"] = "none-fallback"
        x0 = np.asarray(options.get("x0", np.full(n, 1.0 / n)), dtype=float)
        fn = _KRYLOV_FNS[name]
        iterations = [0]
        events = get_events()
        start = time.perf_counter() if events.enabled else 0.0

        def count_iteration(arg):
            iterations[0] += 1
            if events.enabled:
                # gmres (legacy callback) hands us the preconditioned
                # residual norm directly; bicgstab hands us the
                # iterate, so the true residual costs one extra SpMV —
                # paid only while an event stream is live.
                if name == "gmres":
                    residual = float(arg)
                else:
                    residual = float(np.abs(b - A @ np.asarray(arg).ravel()).max())
                events.emit(
                    "solver.convergence", solver=name,
                    iteration=iterations[0], residual=residual,
                    elapsed_s=round(time.perf_counter() - start, 9),
                )

        kwargs = {"rtol": max(tol, 1e-12), "maxiter": max_iterations, "M": M,
                  "x0": x0, "callback": count_iteration}
        if name == "gmres":
            kwargs["restart"] = min(50, n)
            kwargs["callback_type"] = "legacy"
        pi, info = fn(A, b, **kwargs)
        if events.enabled and iterations[0] == 0:
            # scipy skips the callback when x0 already satisfies the
            # tolerance; record the solve anyway so every Krylov call
            # leaves at least one convergence event behind.
            residual = float(np.abs(b - A @ np.asarray(pi).ravel()).max())
            events.emit(
                "solver.convergence", solver=name, iteration=0,
                residual=residual,
                elapsed_s=round(time.perf_counter() - start, 9),
            )
        metrics = get_metrics()
        metrics.counter("solver_iterations").inc(iterations[0])
        metrics.counter("spmv_count").inc(iterations[0])
        if info != 0:
            raise SolverError(f"{name} failed to converge (info={info})")
        return np.asarray(pi).ravel()

    return solve


def _solve_power(chain: CTMC, tol: float, max_iterations: int,
                 options: Mapping | None = None) -> np.ndarray:
    """Power iteration on the uniformized DTMC ``P = I + Q/Λ``.

    Each step is ``Pᵀπ = π + Qᵀπ/Λ``: one SpMV with ``Qᵀ``, transposed
    to CSR once per solve (Λ is 1.02× the maximum exit rate, strictly
    above it for aperiodicity)."""
    options = options or {}
    QT = chain.Q.transpose().tocsr()
    lam = max(chain.max_exit_rate() * 1.02, 1e-12)
    n = chain.n_states
    pi = np.asarray(options.get("x0", np.full(n, 1.0 / n)), dtype=float)
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    events = get_events()
    start = time.perf_counter() if events.enabled else 0.0
    it = 0
    try:
        for it in range(1, max_iterations + 1):
            nxt = pi + QT @ pi / lam
            nxt /= nxt.sum()
            delta = np.abs(nxt - pi).max()
            if events.enabled:
                events.emit(
                    "solver.convergence", solver="power",
                    iteration=it, residual=float(delta),
                    elapsed_s=round(time.perf_counter() - start, 9),
                )
            if delta < tol:
                return nxt
            pi = nxt
    finally:
        metrics = get_metrics()
        metrics.counter("solver_iterations").inc(it)
        metrics.counter("spmv_count").inc(it)
    raise SolverError(f"power iteration did not converge in {max_iterations} steps")


def _solve_jacobi(chain: CTMC, tol: float, max_iterations: int,
                  options: Mapping | None = None) -> np.ndarray:
    """Damped Jacobi on ``πQ = 0``.

    The whole sweep is one SpMV with ``Qᵀ`` (transposed to CSR once per
    solve): the off-diagonal accumulation
    ``Σ_{j≠i} Qᵀ[i,j]·π_j`` equals ``(Qᵀπ)_i + exit_i·π_i`` because the
    diagonal of ``Q`` is ``-exit``.  Undamped Jacobi has
    iteration-matrix spectral radius 1 on this singular system and
    oscillates on cyclic chains; a relaxation factor < 1 restores
    convergence without moving the fixed point.
    """
    omega = 0.7
    n = chain.n_states
    QT = chain.Q.transpose().tocsr()
    exits = chain.exit_rates()
    if np.any(exits == 0.0):
        raise SolverError("stationary iteration requires every state to have an exit rate")
    pi = np.full(n, 1.0 / n)
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
#: options)``.  :mod:`repro.resilience.faultinject` swaps entries
#: in and out to inject failures, so callers should look a method up at
#: call time rather than caching the callable.
SOLVERS: dict[str, Callable[..., np.ndarray]] = {
    "direct": _solve_direct,
    "gmres": _krylov("gmres"),
    "bicgstab": _krylov("bicgstab"),
    "power": _solve_power,
    "jacobi": _solve_jacobi,
}
