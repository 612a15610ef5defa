"""Steady-state solvers.

We solve the global balance equations ``πQ = 0`` with ``Σπ = 1`` by
several methods, mirroring the solver menu of the PEPA Workbench the
paper builds on, and following the HPC guide's advice to prefer
``scipy.sparse`` solvers and to pick the method by problem size:

* ``direct``  sparse LU (:func:`sparse_lu`) on the normal system, its
  factor's fill reported as ``info["lu_fill"]`` (exact; first in the
  default chain below :data:`~repro.resilience.fallback.GMRES_FIRST_STATES`
  states — "exact solution is an advantage");
* ``gmres``   Gauss–Seidel-preconditioned restarted GMRES (first in the
  default chain at or above that size, where on most families the LU
  factors' fill dominates);
* ``jacobi``  damped Jacobi, the one stationary iteration (lowest
  memory footprint, the default chain's last resort).  It is a power
  iteration on the embedded jump chain, so unlike the power method on
  the uniformised chain ``I + Q/Λ`` it does not slow down as the exit
  rates spread over decades (Stewart 1994, ch. 3).

``gmres`` tries its preconditioners in a fixed order: the no-fill
Gauss–Seidel lower triangle (O(nnz) to build), then ILU, then none.  A
preconditioner whose factorisation fails, or under which one restart
cycle does not at least halve the preconditioned residual, hands over
to the next.  The path taken (``"gs"``, ``"gs→ilu"``, ``"gs→ilu→none"``) is
reported through the ``info`` dict and surfaces in the attempt records
of :class:`~repro.resilience.fallback.SolveDiagnostics`.  A
preconditioner fallback belongs there, inside the method, not in a
retry of it.

An iterative answer can pass the residual check and still be far off
when the chain mixes slowly.  :func:`error_bound` bounds its L1 error by
the residual over the spectral gap; the solve chain certifies every
``gmres`` and ``jacobi`` answer with it.

:func:`steady_state` runs the one solve path,
:func:`repro.resilience.fallback.solve_with_fallback`: ``None`` is the
size-ordered default chain, a method name a one-element policy, a
comma-separated list such as ``"direct,gmres,jacobi"`` an ordered
fallback chain, and every answer must pass the residual check
``‖πQ‖∞ ≤ 1e-6 × max exit rate``.  All methods require an irreducible
chain; hand a reducible one to :func:`steady_state` and you get a
:class:`SolverError` naming the offending structure (use
:meth:`CTMC.bottom_sccs` to analyse further).

Every direct solve with a generator-shaped matrix — ``direct`` and the
sensitivity system on the balance matrix, the passage-time, moment and
reward-to-absorption systems on ``Q`` restricted to the non-target
states — factorises through :func:`sparse_lu`.  It orders the columns
by minimum degree on the pattern of ``Aᵀ + A`` (SuperLU's
``MMD_AT_PLUS_A``) and, in symmetric mode, pivots on the diagonal
whenever that entry is at least 0.1 × the largest of its column.  A
generator's diagonal dominates (``Qᵀ`` by columns, bar the
normalisation row; ``Q`` restricted to the non-target states by rows),
so the diagonal pivots nearly always stand and the symmetric ordering
survives into the factors: on the 2,197-state
``tandem_queue_model(3, 12)`` they hold 23.3 × nnz(A), against 67.1
under SuperLU's default COLAMD ordering.  A diagonal that is too small
is still pivoted off, and the residual check still judges the answer.

Every solver callable takes ``(chain, tol, max_iterations, info)``;
``info`` is an optional dict the solver may write its diagnostics to.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import time

from repro.ctmc.chain import CTMC
from repro.exceptions import SolverError
from repro.obs import get_events, get_metrics

if TYPE_CHECKING:  # pragma: no cover — typing only; the import is circular
    from repro.resilience.fallback import FallbackPolicy

__all__ = ["steady_state", "error_bound", "sparse_lu", "SOLVERS"]

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
    ``A`` in CSC form: ``Q``'s CSR arrays (``Qᵀ``'s CSC arrays) without
    column ``n−1``, every row ended by a 1 in that column."""
    Q, n = chain.Q, chain.n_states
    keep = Q.indices != n - 1
    kept = np.concatenate(([0], np.cumsum(keep)))
    ends = kept[Q.indptr[1:]]
    A = sp.csc_matrix(
        (np.insert(Q.data[keep], ends, 1.0), np.insert(Q.indices[keep], ends, n - 1),
         kept[Q.indptr] + np.arange(n + 1)),
        shape=(n, n),
    )
    b = np.zeros(n)
    b[n - 1] = 1.0
    return A, b


def sparse_lu(A: sp.csc_matrix) -> spla.SuperLU:
    """The sparse LU factor of a generator-shaped CSC matrix ``A``.

    Columns are ordered by minimum degree on ``Aᵀ + A`` in symmetric
    mode, with threshold pivoting at 0.1 (see the module docstring).
    An exactly singular factor — a reducible chain, a target set some
    state cannot reach — raises :class:`SolverError`.
    """
    try:
        return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU's "Factor is exactly singular"
        raise SolverError(f"singular system: {exc}") from exc


def _solve_direct(chain: CTMC, tol: float, max_iterations: int,
                  info: dict | None = None) -> np.ndarray:
    """Sparse LU on the :func:`_balance_system`; writes the factor's
    fill to ``info["lu_fill"]``: the entries SuperLU stores for ``L``
    and ``U`` (zeros inside dense supernodes included) over ``nnz(A)``.
    That count is read off the factor; ``L.nnz + U.nnz`` would copy
    both factors out, which costs as much as the whole solve on a small
    chain."""
    A, b = _balance_system(chain)
    lu = sparse_lu(A)
    if info is not None:
        info["lu_fill"] = lu.nnz / A.nnz
    return lu.solve(b)


#: GMRES restart length: the Krylov basis kept between restarts.
_RESTART = 50

#: A restart cycle must cut the preconditioned residual ``‖M(b − Ax)‖``
#: (what left-preconditioned GMRES minimises) at least by this factor; a
#: cycle that does not means the preconditioner has stalled, and the
#: next one takes over.
_STALL_FACTOR = 0.5


def _gauss_seidel(A):
    """The no-fill Gauss–Seidel preconditioner: ``tril(A)`` factorised
    as it stands (natural order, no pivoting), which costs O(nnz)."""
    lower = spla.splu(sp.tril(A, format="csc"), permc_spec="NATURAL",
                      diag_pivot_thresh=0)
    return spla.LinearOperator(A.shape, lower.solve)


def _ilu(A):
    """Incomplete LU with drop tolerance 1e-5 and fill factor 20."""
    ilu = spla.spilu(A, drop_tol=1e-5, fill_factor=20)
    return spla.LinearOperator(A.shape, ilu.solve)


#: ``gmres``'s preconditioners, in the order tried; ``None`` solves
#: unpreconditioned.
_PRECONDITIONERS = (("gs", _gauss_seidel), ("ilu", _ilu), ("none", None))


def _gmres_cycles(A, b, M, rtol: float, restart: int, iterations: list[int],
                  max_iterations: int, callback) -> np.ndarray | None:
    """Restarted GMRES under one preconditioner ``M``, from the uniform
    vector: the solution, or ``None`` once a restart cycle stalls or
    ``iterations[0]`` (advanced by ``callback``) reaches
    ``max_iterations``."""

    def preconditioned_residual(x):
        r = b - A @ x
        return float(np.linalg.norm(r if M is None else M.matvec(r)))

    x = np.full(len(b), 1.0 / len(b))
    previous = preconditioned_residual(x)
    while iterations[0] < max_iterations:
        # In "legacy" mode maxiter counts inner iterations, so each
        # call runs at most one restart cycle.
        x, code = spla.gmres(A, b, rtol=rtol, x0=x, M=M, restart=restart,
                             maxiter=min(restart, max_iterations - iterations[0]),
                             callback=callback, callback_type="legacy")
        if code == 0:
            return np.asarray(x).ravel()
        residual = preconditioned_residual(x)
        if not residual <= _STALL_FACTOR * previous:
            return None
        previous = residual
    return None


def _solve_gmres(chain: CTMC, tol: float, max_iterations: int,
                 info: dict | None = None) -> np.ndarray:
    """Preconditioned restarted GMRES on the :func:`_balance_system`.

    Each preconditioner of :data:`_PRECONDITIONERS` starts afresh and
    runs restart cycles until it converges, stalls (a cycle that does
    not cut the preconditioned residual by :data:`_STALL_FACTOR`) or
    exhausts the ``max_iterations`` inner iterations the whole solve may
    spend.  Writes the preconditioner path taken to
    ``info["preconditioner"]``.
    """
    if info is None:
        info = {}
    A, b = _balance_system(chain)
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

    path = []
    try:
        for name, build in _PRECONDITIONERS:
            if iterations[0] >= max_iterations:
                break
            path.append(name)
            info["preconditioner"] = "→".join(path)
            try:
                M = None if build is None else build(A)
            except (RuntimeError, ValueError, MemoryError):
                # A factorisation raises RuntimeError on exactly-singular
                # factors, but near-singular or very large systems can
                # also surface as ValueError/MemoryError: the next
                # preconditioner beats a crashed solve in every case.
                continue
            pi = _gmres_cycles(A, b, M, max(tol, 1e-12), min(_RESTART, chain.n_states),
                               iterations, max_iterations, count_iteration)
            if pi is not None:
                if events.enabled and iterations[0] == 0:
                    # scipy skips the callback when x0 already satisfies
                    # the tolerance; record the solve anyway so every
                    # GMRES call leaves at least one convergence event.
                    events.emit(
                        "solver.convergence", solver="gmres", iteration=0,
                        residual=float(np.abs(b - A @ pi).max()),
                        elapsed_s=round(time.perf_counter() - start, 9),
                    )
                return pi
    finally:
        get_metrics().counter("solver_iterations").inc(iterations[0])
    raise SolverError(
        f"gmres failed to converge ({iterations[0]} iterations, "
        f"preconditioners {info.get('preconditioner', 'none tried')})"
    )


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
        get_metrics().counter("solver_iterations").inc(sweeps)
    raise SolverError(
        f"jacobi did not converge in {max_iterations} sweeps"
    )


# ----------------------------------------------------------------------
# The spectral-gap certificate
# ----------------------------------------------------------------------
#: Chains up to this size get their spectrum from dense ``eigvals``
#: (about 35 ms at 256 states); larger ones from ARPACK.
_DENSE_GAP_STATES = 256

#: ARPACK's Arnoldi basis size, cap on implicit restarts and relative
#: tolerance.  All are fixed, so an estimate that does not converge
#: within them is "unknown" on every run, never a matter of timing.  A
#: gap off by the tolerance, 1e-12, cannot certify a wrong answer under
#: the default ``residual_tol`` of 1e-6: with a true gap that small,
#: certifying would need ``‖πQ‖₁/Λ`` near 1e-18, below the rounding
#: error of computing it.
_GAP_NCV = 20
_GAP_MAXITER = 100
_GAP_TOL = 1e-12


def error_bound(chain: CTMC, pi: np.ndarray) -> tuple[float | None, float | None]:
    """``(gap, bound)``: a certificate for a candidate steady state ``pi``.

    ``gap`` is ``1 − |λ₂|`` of the lazy uniformised chain
    ``P = I + Q/Λ`` with ``Λ = 2 × max exit rate`` (the factor 2 puts
    the whole spectrum in ``Re λ ≥ 0``, so a periodic chain has no
    eigenvalue near −1 to mask its gap).  ``bound`` is
    ``(‖πQ‖₁/Λ)/gap``, the L1 distance from ``pi`` to the true π to
    first order: a small residual means little when the chain mixes
    slowly.  Both are ``None`` when ARPACK does not converge within its
    fixed restart cap; a gap at or below zero gives an infinite bound.
    """
    n = chain.n_states
    lam = 2.0 * float(chain.exit_rates().max())
    PT = sp.identity(n, format="csr") + chain.Q.transpose().tocsr() / lam
    if n <= _DENSE_GAP_STATES:
        eigenvalues = np.linalg.eigvals(PT.toarray())
    else:
        # A fixed pseudo-random start: the uniform vector would leave
        # the Arnoldi basis inside the symmetric modes of a symmetric
        # model (identical clients, a ring of places) and can miss a
        # slower mode outside them.
        v0 = np.random.default_rng(0).uniform(0.5, 1.5, n)
        try:
            eigenvalues = spla.eigs(PT, k=2, ncv=_GAP_NCV, maxiter=_GAP_MAXITER,
                                    tol=_GAP_TOL, v0=v0, return_eigenvectors=False)
        except spla.ArpackError:
            return None, None
    gap = max(0.0, 1.0 - float(np.sort(np.abs(eigenvalues))[-2]))
    residual = float(np.abs(chain.Q.T @ pi).sum()) / lam
    return gap, (residual / gap if gap > 0.0 else float("inf"))


#: The solver registry: name → callable ``(chain, tol, max_iterations,
#: info)``.  :mod:`repro.resilience.faultinject` swaps entries
#: in and out to inject failures, so callers should look a method up at
#: call time rather than caching the callable.
SOLVERS: dict[str, Callable[..., np.ndarray]] = {
    "direct": _solve_direct,
    "gmres": _solve_gmres,
    "jacobi": _solve_jacobi,
}
