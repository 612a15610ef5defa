"""Fallback-chain steady-state solving with bounded retries.

A production service cannot abort a whole request because ``gmres``
returned ``info != 0`` — numerical back ends are fallible,
interchangeable components behind a uniform interface (Ding & Hillston,
arXiv:1012.3040).  :func:`solve_with_fallback` therefore tries an
ordered :class:`FallbackPolicy` of methods from
:data:`repro.ctmc.steady.SOLVERS`; each attempt is bounded by the
policy's iteration budget and a cooperative wall-clock deadline, and
iterative methods get bounded retry-with-backoff (perturbed starting
vector, relaxed ILU preconditioner) before the chain moves on.  Every
attempt — successful or not — is recorded in a structured
:class:`SolveDiagnostics`, and a converged result is only accepted if
its balance-equation residual ``‖πQ‖∞`` passes a scale-aware sanity
check, so an iterative method that silently stagnated cannot hand back
a wrong answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.ctmc.chain import CTMC
from repro.ctmc.steady import (
    SOLVERS,
    _call_solver,
    _irreducibility_failure,
    _normalise,
)
from repro.exceptions import SolverError
from repro.obs import get_metrics, get_tracer
from repro.resilience.budget import Deadline
from repro.utils.formatting import format_table

__all__ = [
    "AttemptRecord",
    "FallbackPolicy",
    "SolveDiagnostics",
    "ITERATIVE_METHODS",
    "solve_with_fallback",
]

#: Methods that can profit from a retry with a different starting point
#: or preconditioner; ``direct`` is deterministic, so retrying it with
#: the same inputs would only burn the deadline.
ITERATIVE_METHODS = frozenset(
    {"gmres", "bicgstab", "lgmres", "power", "gauss_seidel", "jacobi"}
)


@dataclass(frozen=True)
class FallbackPolicy:
    """An ordered solving policy: which methods, how hard, how long.

    ``methods`` are tried left to right; each iterative method gets up
    to ``1 + retries`` attempts with exponential ``backoff`` sleeps and
    per-retry perturbation of the starting vector (relative magnitude
    ``perturbation``) plus a 100×-per-retry relaxed ILU ``drop_tol``.
    ``deadline`` bounds the whole chain in wall-clock seconds
    (cooperatively — a running scipy kernel is never pre-empted).
    A candidate answer is rejected unless its residual ``‖πQ‖∞`` is
    below ``residual_tol`` scaled by the chain's largest exit rate.
    """

    methods: tuple[str, ...] = ("direct", "gmres", "bicgstab", "power")
    retries: int = 2
    backoff: float = 0.05
    deadline: float | None = None
    tol: float = 1e-12
    max_iterations: int = 200_000
    residual_tol: float = 1e-6
    perturbation: float = 1e-3

    @classmethod
    def parse(cls, spec: str, **overrides) -> "FallbackPolicy":
        """Build a policy from a comma-separated method list.

        ``FallbackPolicy.parse("direct,gmres,power", deadline=30.0)``
        is the CLI's ``--solver-policy`` syntax; remaining fields come
        from ``overrides`` or the defaults.
        """
        methods = tuple(m.strip() for m in spec.split(",") if m.strip())
        if not methods:
            raise SolverError(f"empty solver policy spec {spec!r}")
        return cls(methods=methods, **overrides)

    def validate(self, registry: dict | None = None) -> None:
        """Reject unknown method names eagerly (O(1), before any solve).

        ``registry`` defaults to :data:`repro.ctmc.steady.SOLVERS`.
        """
        known = SOLVERS if registry is None else registry
        unknown = [m for m in self.methods if m not in known]
        if unknown:
            raise SolverError(
                f"unknown steady-state method(s) {unknown} in fallback policy; "
                f"choose from {sorted(known)}"
            )
        if not self.methods:
            raise SolverError("fallback policy has no methods")

    def attempts_for(self, method: str) -> int:
        """Total attempts granted to ``method`` (1 + retries if iterative)."""
        return 1 + (self.retries if method in ITERATIVE_METHODS else 0)


@dataclass
class AttemptRecord:
    """One solver attempt: what ran, how long, and how it ended.

    ``outcome`` is one of ``"converged"``, ``"failed"`` (a
    :class:`SolverError`), ``"error"`` (an unexpected exception),
    ``"bad-residual"`` (converged but failed the ``‖πQ‖∞`` sanity
    check) or ``"deadline"`` (skipped, budget exhausted).
    """

    method: str
    attempt: int
    outcome: str
    elapsed: float
    residual: float | None = None
    detail: str = ""
    #: Which preconditioner path a Krylov attempt took: ``"ilu"`` or
    #: ``"none-fallback"`` (ILU factorisation failed).  Empty for
    #: non-Krylov methods.
    preconditioner: str = ""

    @property
    def ok(self) -> bool:
        """True for the attempt that produced the accepted answer."""
        return self.outcome == "converged"


@dataclass
class SolveDiagnostics:
    """The structured story of one fallback-chain solve.

    ``attempts`` lists every try in order; ``method`` names the solver
    that produced the accepted answer (``None`` if the whole chain
    failed); ``elapsed`` is total wall-clock time.
    """

    n_states: int = 0
    attempts: list[AttemptRecord] = field(default_factory=list)
    method: str | None = None
    elapsed: float = 0.0

    @property
    def succeeded(self) -> bool:
        """True once some attempt converged and passed the residual check."""
        return self.method is not None

    def record(self, method: str, attempt: int, outcome: str, elapsed: float,
               *, residual: float | None = None, detail: str = "",
               preconditioner: str = "") -> AttemptRecord:
        """Append (and return) one :class:`AttemptRecord`."""
        rec = AttemptRecord(method, attempt, outcome, elapsed,
                            residual=residual, detail=detail,
                            preconditioner=preconditioner)
        self.attempts.append(rec)
        return rec

    def attempts_for(self, method: str) -> list[AttemptRecord]:
        """All recorded attempts of one method, in order."""
        return [a for a in self.attempts if a.method == method]

    def as_table(self) -> str:
        """Render the attempt log as an aligned plain-text table."""
        rows = [
            [a.method, a.attempt, a.outcome, f"{a.elapsed:.4f}s",
             "-" if a.residual is None else f"{a.residual:.3e}", a.detail]
            for a in self.attempts
        ]
        return format_table(
            ["method", "attempt", "outcome", "elapsed", "residual", "detail"], rows
        )

    def summary(self) -> str:
        """One line: winner (or failure), attempt count, total time."""
        outcome = f"solved by {self.method}" if self.succeeded else "all methods failed"
        return (
            f"{outcome} after {len(self.attempts)} attempt(s) "
            f"in {self.elapsed:.4f}s over {self.n_states} states"
        )


def _retry_options(n: int, attempt: int, policy: FallbackPolicy) -> dict | None:
    """Per-attempt solver hints: none on the first try, a perturbed
    start vector and a relaxed preconditioner on retries."""
    if attempt == 1:
        return None
    rng = np.random.default_rng(7919 * attempt + n)
    x0 = np.full(n, 1.0 / n) * (
        1.0 + policy.perturbation * attempt * rng.standard_normal(n)
    )
    x0 = np.abs(x0)
    x0 /= x0.sum()
    return {
        "x0": x0,
        "ilu_drop_tol": 1e-5 * 100.0 ** (attempt - 1),
        "ilu_fill_factor": 20,
    }


def solve_with_fallback(
    chain: CTMC,
    policy: FallbackPolicy | str | None = None,
    *,
    check_irreducible: bool = True,
    reducible: str = "error",
    solvers: dict | None = None,
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Solve ``πQ = 0, Σπ = 1`` through an ordered fallback chain.

    Returns ``(pi, diagnostics)``.  ``policy`` may be a
    :class:`FallbackPolicy`, a comma-separated method list, or ``None``
    for the default ``direct → gmres → bicgstab → power`` chain.
    ``reducible`` has the same semantics as in
    :func:`repro.ctmc.steady.steady_state`.  ``solvers`` overrides the
    registry (tests use this); entries are looked up per attempt so
    fault-injection wrappers installed mid-run are honoured.

    Raises :class:`SolverError` — with the full :class:`SolveDiagnostics`
    attached as ``exc.diagnostics`` and summarised in ``exc.context`` —
    only when *every* method of the policy has been exhausted or the
    deadline ran out.
    """
    if isinstance(policy, str):
        policy = FallbackPolicy.parse(policy)
    if policy is None:
        policy = FallbackPolicy()
    registry = SOLVERS if solvers is None else solvers
    policy.validate(registry)
    if reducible not in ("error", "bscc"):
        raise SolverError(f"unknown reducible policy {reducible!r}")

    diag = SolveDiagnostics(n_states=chain.n_states)
    if chain.n_states == 0:
        raise SolverError("cannot solve an empty chain").with_context(stage="solve")
    if chain.n_states == 1:
        diag.method = "trivial"
        return np.ones(1), diag

    if check_irreducible and not chain.is_irreducible():
        if reducible != "bscc":
            raise _irreducibility_failure(chain)
        bsccs = chain.bottom_sccs()
        if len(bsccs) != 1:
            raise SolverError(
                f"the chain has {len(bsccs)} bottom strongly connected "
                "components; the steady state depends on the initial state"
            ).with_context(stage="solve")
        members = bsccs[0]
        pi_sub, diag = solve_with_fallback(
            chain.restricted_to(members), policy,
            check_irreducible=False, solvers=solvers,
        )
        pi = np.zeros(chain.n_states)
        pi[members] = pi_sub
        diag.n_states = chain.n_states
        return pi, diag

    deadline = Deadline.after(policy.deadline)
    start = time.monotonic()
    rate_scale = max(1.0, chain.max_exit_rate())
    residual_bound = policy.residual_tol * rate_scale

    tracer = get_tracer()
    with tracer.span("ctmc.solve.fallback", states=chain.n_states,
                     methods=",".join(policy.methods)) as fsp:
        for method in policy.methods:
            for attempt in range(1, policy.attempts_for(method) + 1):
                if deadline.expired:
                    diag.record(
                        method, attempt, "deadline", 0.0,
                        detail=f"skipped: {policy.deadline:g}s budget exhausted",
                    )
                    diag.elapsed = time.monotonic() - start
                    _annotate_span(fsp, diag)
                    exc = SolverError(
                        f"steady-state deadline of {policy.deadline:g}s exhausted "
                        f"after {len(diag.attempts)} attempt(s); {diag.summary()}"
                    ).with_context(stage="solve", attempt=len(diag.attempts))
                    exc.diagnostics = diag
                    raise exc
                if attempt > 1 and policy.backoff > 0:
                    time.sleep(
                        min(policy.backoff * 2.0 ** (attempt - 2),
                            max(deadline.remaining(), 0.0))
                    )
                options = dict(_retry_options(chain.n_states, attempt, policy) or {})
                # Solvers report back through this dict — currently the
                # Krylov methods record which preconditioner path ran.
                info: dict = {}
                options["info"] = info
                t0 = time.monotonic()
                with tracer.span("solve.attempt", method=method,
                                 attempt=attempt) as asp:
                    try:
                        solver = registry[method]
                        raw = _call_solver(
                            solver, chain, policy.tol, policy.max_iterations, options
                        )
                        pi = _normalise(raw, method, policy.tol)
                        elapsed = time.monotonic() - t0
                        residual = float(np.abs(chain.Q.T @ pi).max())
                        preconditioner = info.get("preconditioner", "")
                        if not np.isfinite(residual) or residual > residual_bound:
                            diag.record(
                                method, attempt, "bad-residual", elapsed,
                                residual=residual,
                                detail=f"‖πQ‖∞ = {residual:.3e} above bound {residual_bound:.3e}",
                                preconditioner=preconditioner,
                            )
                            asp.set(outcome="bad-residual", residual=residual)
                            continue
                        diag.record(method, attempt, "converged", elapsed,
                                    residual=residual,
                                    preconditioner=preconditioner)
                        diag.method = method
                        diag.elapsed = time.monotonic() - start
                        asp.set(outcome="converged", residual=residual)
                        _annotate_span(fsp, diag)
                        get_metrics().gauge("residual").set(residual)
                        return pi, diag
                    except SolverError as exc:
                        diag.record(method, attempt, "failed",
                                    time.monotonic() - t0, detail=str(exc),
                                    preconditioner=info.get("preconditioner", ""))
                        asp.set(outcome="failed", error=type(exc).__name__)
                    except Exception as exc:  # noqa: BLE001 — any back-end blow-up
                        diag.record(method, attempt, "error", time.monotonic() - t0,
                                    detail=f"{type(exc).__name__}: {exc}",
                                    preconditioner=info.get("preconditioner", ""))
                        asp.set(outcome="error", error=type(exc).__name__)

        diag.elapsed = time.monotonic() - start
        _annotate_span(fsp, diag)
        failures = "; ".join(
            f"{a.method}#{a.attempt}: {a.outcome}" + (f" ({a.detail})" if a.detail else "")
            for a in diag.attempts
        )
        exc = SolverError(
            f"all {len(policy.methods)} fallback method(s) failed "
            f"({len(diag.attempts)} attempts): {failures}"
        ).with_context(stage="solve", attempt=len(diag.attempts))
        exc.diagnostics = diag
        raise exc


def _annotate_span(span, diag: SolveDiagnostics) -> None:
    """Summarise a :class:`SolveDiagnostics` onto a fallback span."""
    span.set(
        attempts=len(diag.attempts),
        solved_by=diag.method or "none",
        diagnostics=diag.summary(),
    )
