"""The one steady-state solve path: an ordered method chain with bounded
retries and an always-on residual check.

A production service cannot abort a whole request because ``gmres``
returned ``info != 0`` — numerical back ends are fallible,
interchangeable components behind a uniform interface (Ding & Hillston,
arXiv:1012.3040).  :func:`run_chain` is that interface's loop: it tries
the methods of a :class:`FallbackPolicy` in order, gives iterative
methods bounded retry-with-backoff, stops at a cooperative wall-clock
deadline, records every attempt in a :class:`SolveDiagnostics`, and
accepts a candidate only if its residual passes a scale-aware bound —
so a method that silently stagnated cannot hand back a wrong answer.

Two solves run on it: :func:`solve_with_fallback` (the CTMC balance
equations ``πQ = 0``, residual ``‖πQ‖∞``; what
:func:`repro.ctmc.steady.steady_state` and every analysis call) and
:func:`repro.fluid.ode.steady_fluid` (the fluid fixed point
``F(x) = 0``, residual ``‖F(x)‖∞``).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.ctmc.chain import CTMC
from repro.ctmc.steady import SOLVERS, _irreducibility_failure, _normalise
from repro.exceptions import SolverError
from repro.obs import get_metrics, get_tracer
from repro.resilience.budget import Deadline
from repro.utils.formatting import format_table

__all__ = [
    "AttemptRecord",
    "FallbackPolicy",
    "SolveDiagnostics",
    "ITERATIVE_METHODS",
    "run_chain",
    "solve_with_fallback",
]

#: Methods that can profit from a retry with a different starting point
#: or preconditioner; ``direct`` is deterministic, so retrying it with
#: the same inputs would only burn the deadline.
ITERATIVE_METHODS = frozenset({"gmres", "bicgstab", "power", "jacobi"})


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
    def of(cls, spec: "FallbackPolicy | str | Sequence[str] | None" = None,
           **overrides) -> "FallbackPolicy":
        """The policy a ``solver`` argument names — the one place a
        spec is parsed.

        ``spec`` is a method name (a one-element policy), a
        comma-separated method list, a sequence of names, ``None`` (the
        default chain) or a ready policy, which is returned unchanged.
        ``overrides`` fill the remaining fields of a policy built here.
        """
        if isinstance(spec, cls):
            return spec
        if spec is None:
            return cls(**overrides)
        return cls.parse(spec, **overrides)

    @classmethod
    def parse(cls, spec: "str | Sequence[str]", **overrides) -> "FallbackPolicy":
        """Build a policy from a comma-separated method list.

        ``FallbackPolicy.parse("direct,gmres,power", deadline=30.0)``
        is the CLI's ``--solver`` syntax; remaining fields come from
        ``overrides`` or the defaults.
        """
        names = spec.split(",") if isinstance(spec, str) else spec
        methods = tuple(m.strip() for m in names if m.strip())
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
                f"unknown steady-state method(s) {unknown}; "
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
    """The structured story of one :func:`run_chain` solve.

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

    @property
    def residual(self) -> float | None:
        """The accepted answer's residual (``None`` if nothing was accepted)."""
        return self.attempts[-1].residual if self.succeeded else None

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


def _retry_options(n: int, attempt: int, policy: FallbackPolicy) -> dict:
    """Per-attempt solver hints: none on the first try, a perturbed
    start vector and a relaxed preconditioner on retries."""
    if attempt == 1:
        return {}
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


def run_chain(
    policy: FallbackPolicy,
    attempt: Callable[[str, int, dict], np.ndarray],
    residual: Callable[[np.ndarray], float],
    bound: float,
    *,
    n_states: int,
    span,
    stage: str = "solve",
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Try ``policy.methods`` in order until one yields an accepted answer.

    ``attempt(method, k, info)`` runs try ``k`` (1-based) of ``method``
    and returns a candidate vector; it may write
    ``info["preconditioner"]``.  A candidate is accepted when
    ``residual(candidate)`` is finite and at most ``bound``.  A
    :class:`SolverError` from an attempt is a ``"failed"`` attempt, any
    other exception an ``"error"``; both move the chain on.  Each try
    opens a ``solve.attempt`` span; ``span`` (the caller's enclosing
    span) receives ``solved_by``, ``attempts`` and ``residual``.

    Returns ``(candidate, diagnostics)``.  Raises :class:`SolverError`
    with ``exc.diagnostics`` attached, ``stage`` in its context, when
    every attempt failed or the policy's deadline ran out.
    """
    diag = SolveDiagnostics(n_states=n_states)
    deadline = Deadline.after(policy.deadline)
    start = time.monotonic()
    tracer = get_tracer()
    try:
        for method in policy.methods:
            for k in range(1, policy.attempts_for(method) + 1):
                if deadline.expired:
                    diag.record(
                        method, k, "deadline", 0.0,
                        detail=f"skipped: {policy.deadline:g}s budget exhausted",
                    )
                    raise _chain_failure(
                        f"steady-state deadline of {policy.deadline:g}s exhausted "
                        f"after {len(diag.attempts)} attempt(s)", diag, stage)
                if k > 1 and policy.backoff > 0:
                    time.sleep(min(policy.backoff * 2.0 ** (k - 2),
                                   max(deadline.remaining(), 0.0)))
                info: dict = {}
                res = None
                t0 = time.monotonic()
                with tracer.span("solve.attempt", method=method, attempt=k) as asp:
                    try:
                        value = attempt(method, k, info)
                        res = float(residual(value))
                    except Exception as exc:  # noqa: BLE001 — any back-end blow-up
                        if isinstance(exc, SolverError):
                            outcome, detail = "failed", str(exc)
                        else:
                            outcome, detail = "error", f"{type(exc).__name__}: {exc}"
                        asp.set(outcome=outcome, error=type(exc).__name__)
                    else:
                        if np.isfinite(res) and res <= bound:
                            outcome, detail = "converged", ""
                        else:
                            outcome = "bad-residual"
                            detail = f"residual {res:.3e} above bound {bound:.3e}"
                        asp.set(outcome=outcome, residual=res)
                diag.record(method, k, outcome, time.monotonic() - t0,
                            residual=res, detail=detail,
                            preconditioner=info.get("preconditioner", ""))
                if outcome == "converged":
                    diag.method = method
                    return value, diag
        failures = "; ".join(
            f"{a.method}#{a.attempt}: {a.outcome}" + (f" ({a.detail})" if a.detail else "")
            for a in diag.attempts
        )
        raise _chain_failure(
            f"all {len(policy.methods)} fallback method(s) failed "
            f"({len(diag.attempts)} attempts): {failures}", diag, stage)
    finally:
        diag.elapsed = time.monotonic() - start
        span.set(solved_by=diag.method or "none", attempts=len(diag.attempts))
        if diag.succeeded:
            span.set(residual=diag.residual)


def _chain_failure(message: str, diag: SolveDiagnostics, stage: str) -> SolverError:
    exc = SolverError(message).with_context(stage=stage, attempt=len(diag.attempts))
    exc.diagnostics = diag
    return exc


def solve_with_fallback(
    chain: CTMC,
    policy: FallbackPolicy | str | None = None,
    *,
    check_irreducible: bool = True,
    reducible: str = "error",
    solvers: dict | None = None,
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Solve ``πQ = 0, Σπ = 1``; returns ``(pi, diagnostics)``.

    ``policy`` is anything :meth:`FallbackPolicy.of` accepts; ``None``
    is the default ``direct → gmres → bicgstab → power`` chain.  Method
    names are checked first, so a typo fails in O(1), before any
    structural analysis of the chain.

    ``reducible`` selects the policy for chains that are not
    irreducible: ``"error"`` raises, naming an absorbing state if there
    is one; ``"bscc"`` solves on the chain's unique bottom strongly
    connected component and gives the transient states probability
    zero — the long-run distribution of a model with a start-up phase.
    A chain with several bottom components has no
    initial-state-independent steady state and always raises.
    ``check_irreducible=False`` skips the analysis for chains known to
    be irreducible.

    ``solvers`` overrides the registry (tests use this); entries are
    looked up per attempt so fault-injection wrappers installed mid-run
    are honoured.  A one-state chain needs no solver: its π is ``[1]``
    and the diagnostics credit the policy's first method, so
    ``diagnostics.method`` names the requested method on every chain.

    Raises :class:`SolverError` — with the full :class:`SolveDiagnostics`
    attached as ``exc.diagnostics`` — when every method of the policy
    has been exhausted or the deadline ran out.
    """
    policy = FallbackPolicy.of(policy)
    registry = SOLVERS if solvers is None else solvers
    policy.validate(registry)
    if reducible not in ("error", "bscc"):
        raise SolverError(f"unknown reducible policy {reducible!r}")
    n = chain.n_states
    if n == 0:
        raise SolverError("cannot solve an empty chain").with_context(stage="solve")
    with get_tracer().span("ctmc.solve", states=n,
                           methods=",".join(policy.methods)) as span:
        if n == 1 or not check_irreducible:
            return _solve_irreducible(chain, policy, registry, span)
        # One SCC pass answers both questions: an irreducible chain is
        # its own single bottom component.
        bsccs = chain.bottom_sccs()
        if len(bsccs[0]) == n:
            return _solve_irreducible(chain, policy, registry, span)
        if reducible != "bscc":
            raise _irreducibility_failure(chain)
        if len(bsccs) != 1:
            raise SolverError(
                f"the chain has {len(bsccs)} bottom strongly connected "
                "components; the steady state depends on the initial state"
            ).with_context(stage="solve")
        members = bsccs[0]
        pi_sub, diag = _solve_irreducible(chain.restricted_to(members), policy,
                                          registry, span)
    pi = np.zeros(n)
    pi[members] = pi_sub
    diag.n_states = n
    return pi, diag


def _solve_irreducible(chain: CTMC, policy: FallbackPolicy, registry: dict,
                       span) -> tuple[np.ndarray, SolveDiagnostics]:
    """:func:`run_chain` over an irreducible chain, inside ``span``."""
    n = chain.n_states
    if n == 1:
        diag = SolveDiagnostics(n_states=1, method=policy.methods[0])
        diag.record(policy.methods[0], 1, "converged", 0.0, residual=0.0,
                    detail="one state")
        return np.ones(1), diag

    def attempt(method: str, k: int, info: dict) -> np.ndarray:
        options = _retry_options(n, k, policy)
        options["info"] = info
        raw = registry[method](chain, policy.tol, policy.max_iterations, options)
        return _normalise(raw, method, policy.tol)

    def residual(pi: np.ndarray) -> float:
        return float(np.abs(chain.Q.T @ pi).max())

    # Relative to the chain's own time scale: an absolute floor would
    # accept any vector on a slow chain.  Irreducible with n >= 2, so
    # every state has a positive exit rate.
    bound = policy.residual_tol * chain.max_exit_rate()
    pi, diag = run_chain(policy, attempt, residual, bound, n_states=n, span=span)
    get_metrics().gauge("residual").set(diag.residual)
    return pi, diag
