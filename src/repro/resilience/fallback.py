"""The one steady-state solve path: an ordered method chain with an
always-on residual check.

A production service cannot abort a whole request because ``gmres``
returned ``info != 0`` — numerical back ends are fallible,
interchangeable components behind a uniform interface (Ding & Hillston,
arXiv:1012.3040).  :func:`run_chain` is that interface's loop: it runs
each method of a :class:`FallbackPolicy` once, in order, records every
attempt in a :class:`SolveDiagnostics`, and accepts a candidate only if its residual
passes a scale-aware bound — so a method that silently stagnated cannot
hand back a wrong answer.  A residual can still be small on a wrong
answer when the chain mixes slowly, so an optional certificate judges
what passes it: the CTMC solve bounds the error of every ``gmres`` and
``jacobi`` answer by residual over spectral gap
(:func:`repro.ctmc.steady.error_bound`), and an answer whose bound
exceeds the policy's ``residual_tol`` is ``"uncertified"`` and moves
the chain on, in the default large order to ``direct``.  A method is
deterministic in its inputs, so it is never retried; a fallback inside
one method (such as ``gmres`` moving from the Gauss–Seidel to the ILU
preconditioner) lives in that method.

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
from repro.ctmc.steady import SOLVERS, _irreducibility_failure, _normalise, error_bound
from repro.exceptions import SolverError
from repro.obs import get_metrics, get_tracer
from repro.utils.formatting import format_table

__all__ = [
    "AttemptRecord",
    "CERTIFIED_METHODS",
    "Certificate",
    "FallbackPolicy",
    "GMRES_FIRST_STATES",
    "SolveDiagnostics",
    "run_chain",
    "solve_with_fallback",
]

#: The size, in states of the chain actually solved (after any
#: bottom-SCC restriction), from which the default chain tries GMRES
#: before sparse LU.  The crossover sweep in
#: ``benchmarks/bench_solvers.py`` first put it between 2,200 and 2,900
#: states.  Under the Gauss–Seidel preconditioner and the minimum-degree
#: LU ordering of :func:`repro.ctmc.steady.sparse_lu` no one size
#: separates the methods: GMRES wins on client/server chains from 576
#: states (at 6,144 the LU still takes about 2.2 s against 25 ms), sparse
#: LU on tandem queues and the two-courier ring at every swept size, up
#: to 4,913 and 4,186 states.
GMRES_FIRST_STATES = 2_500

#: The methods whose answers :func:`solve_with_fallback` certifies with
#: the spectral-gap error bound; ``direct`` is exact and pays nothing.
CERTIFIED_METHODS = frozenset({"gmres", "jacobi"})


@dataclass(frozen=True)
class FallbackPolicy:
    """An ordered solving policy: which methods, how hard, how long.

    ``methods`` are tried left to right, once each; ``None`` (the
    default) means the size-ordered chain of :meth:`methods_for`.
    A candidate answer is rejected unless its residual ``‖πQ‖∞`` is
    below ``residual_tol`` scaled by the chain's largest exit rate, and
    an iterative one also unless its certified L1 error bound is at
    most ``residual_tol``.
    """

    methods: tuple[str, ...] | None = None
    tol: float = 1e-12
    max_iterations: int = 200_000
    residual_tol: float = 1e-6

    @classmethod
    def of(cls, spec: "FallbackPolicy | str | Sequence[str] | None" = None,
           **overrides) -> "FallbackPolicy":
        """The policy a ``solver`` argument names — the one place a
        spec is parsed.

        ``spec`` is a method name (a one-element policy), a
        comma-separated method list, a sequence of names, ``None`` (the
        size-ordered default chain) or a ready policy, which is returned
        unchanged.
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

        ``FallbackPolicy.parse("direct,gmres,jacobi", max_iterations=5000)``
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
        methods = self.methods_for(0)  # both default orders name the same methods
        unknown = [m for m in methods if m not in known]
        if unknown:
            raise SolverError(
                f"unknown steady-state method(s) {unknown}; "
                f"choose from {sorted(known)}"
            )
        if not methods:
            raise SolverError("fallback policy has no methods")

    def methods_for(self, n_states: int) -> tuple[str, ...]:
        """The methods tried, in order, on a chain of ``n_states`` states.

        An explicit ``methods`` is honoured at every size.  The default
        is ``direct → gmres → jacobi`` below :data:`GMRES_FIRST_STATES`
        and ``gmres → direct → jacobi`` from it on.
        """
        if self.methods is not None:
            return self.methods
        if n_states < GMRES_FIRST_STATES:
            return ("direct", "gmres", "jacobi")
        return ("gmres", "direct", "jacobi")


@dataclass(frozen=True)
class Certificate:
    """A verdict on a candidate that passed the residual check.

    ``status`` is ``"certified"`` (``error_bound`` at most the
    tolerance), ``"uncertified"`` (above it: the candidate is rejected)
    or ``"unknown"`` (the gap estimate did not converge: the candidate
    is accepted as the residual check alone would).
    """

    status: str
    gap: float | None = None
    error_bound: float | None = None


@dataclass
class AttemptRecord:
    """One method's single attempt: what ran, how long, and how it ended.

    ``outcome`` is one of ``"converged"``, ``"failed"`` (a
    :class:`SolverError`), ``"error"`` (an unexpected exception),
    ``"bad-residual"`` (converged but failed the ``‖πQ‖∞`` sanity
    check) or ``"uncertified"`` (passed the residual check, but its
    certified error bound did not).
    """

    method: str
    outcome: str
    elapsed: float
    residual: float | None = None
    detail: str = ""
    #: Which preconditioner path a Krylov attempt took: ``"gs"``,
    #: ``"gs→ilu"`` or ``"gs→ilu→none"``.  Empty for non-Krylov methods.
    preconditioner: str = ""
    #: The certificate status (``"certified"``, ``"uncertified"``,
    #: ``"unknown"``), the spectral gap and the L1 error bound of a
    #: certified method's answer.  Empty/``None`` where no certificate
    #: ran (``direct``, a failed attempt, the fluid solve).
    certificate: str = ""
    gap: float | None = None
    error_bound: float | None = None

    @property
    def ok(self) -> bool:
        """True for the attempt that produced the accepted answer."""
        return self.outcome == "converged"


@dataclass
class SolveDiagnostics:
    """The structured story of one :func:`run_chain` solve.

    ``attempts`` lists every method tried, in order; ``method`` names
    the solver that produced the accepted answer (``None`` if the whole
    chain failed); ``elapsed`` is total wall-clock time.  ``exit_rate_spread``
    (max/min exit rate of the chain solved) is a cheap condition proxy:
    the error in π is bounded by the residual times the inverse spectral
    gap, and a wide spread is where a small residual says least.  It is
    ``None`` where it does not apply (the fluid solve, a one-state chain).
    ``uncertified_l1`` is the L1 distance from the accepted answer to
    the last uncertified one, when the chain rejected one on its way.
    """

    n_states: int = 0
    attempts: list[AttemptRecord] = field(default_factory=list)
    method: str | None = None
    elapsed: float = 0.0
    exit_rate_spread: float | None = None
    uncertified_l1: float | None = None

    @property
    def succeeded(self) -> bool:
        """True once some attempt converged and passed the residual check."""
        return self.method is not None

    @property
    def accepted(self) -> AttemptRecord | None:
        """The attempt whose answer was accepted (``None`` if none was)."""
        return self.attempts[-1] if self.succeeded else None

    @property
    def residual(self) -> float | None:
        """The accepted answer's residual (``None`` if nothing was accepted)."""
        return self.accepted.residual if self.succeeded else None

    @property
    def certificate(self) -> str:
        """The accepted answer's certificate status (empty if none ran)."""
        return self.accepted.certificate if self.succeeded else ""

    @property
    def gap(self) -> float | None:
        """The spectral gap behind the accepted answer's certificate."""
        return self.accepted.gap if self.succeeded else None

    @property
    def error_bound(self) -> float | None:
        """The accepted answer's certified L1 error bound."""
        return self.accepted.error_bound if self.succeeded else None

    def record(self, method: str, outcome: str, elapsed: float,
               *, residual: float | None = None, detail: str = "",
               preconditioner: str = "",
               certificate: Certificate | None = None) -> AttemptRecord:
        """Append (and return) one :class:`AttemptRecord`."""
        cert = certificate or Certificate("")
        rec = AttemptRecord(method, outcome, elapsed,
                            residual=residual, detail=detail,
                            preconditioner=preconditioner,
                            certificate=cert.status, gap=cert.gap,
                            error_bound=cert.error_bound)
        self.attempts.append(rec)
        return rec

    def as_table(self) -> str:
        """Render the attempt log as an aligned plain-text table."""
        rows = [
            [a.method, a.outcome, f"{a.elapsed:.4f}s",
             "-" if a.residual is None else f"{a.residual:.3e}",
             a.preconditioner or "-", _describe_certificate(a) or "-",
             a.detail]
            for a in self.attempts
        ]
        return format_table(
            ["method", "outcome", "elapsed", "residual", "preconditioner",
             "certificate", "detail"], rows
        )

    def summary(self) -> str:
        """One line: winner (or failure), attempt count, total time, and
        the winner's preconditioner path and certificate, if any."""
        outcome = f"solved by {self.method}" if self.succeeded else "all methods failed"
        line = (
            f"{outcome} after {len(self.attempts)} attempt(s) "
            f"in {self.elapsed:.4f}s over {self.n_states} states"
        )
        accepted = self.accepted
        notes = [] if accepted is None else [
            note for note in (
                accepted.preconditioner and f"preconditioner {accepted.preconditioner}",
                _describe_certificate(accepted),
                self.uncertified_l1 is not None
                and f"uncertified answer rejected at L1 distance {self.uncertified_l1:.3e}",
            ) if note
        ]
        return f"{line} ({', '.join(notes)})" if notes else line


def _describe_certificate(attempt: AttemptRecord) -> str:
    """``"certified: error bound 1.2e-13"``, ``"certificate unknown"`` or ``""``."""
    if attempt.error_bound is not None:
        return f"{attempt.certificate}: error bound {attempt.error_bound:.3e}"
    if attempt.certificate:
        return f"certificate {attempt.certificate}"
    return ""


def run_chain(
    policy: FallbackPolicy,
    attempt: Callable[[str, dict], np.ndarray],
    residual: Callable[[np.ndarray], float],
    bound: float,
    *,
    n_states: int,
    span,
    stage: str = "solve",
    certify: Callable[[str, np.ndarray], Certificate | None] | None = None,
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Try ``policy.methods_for(n_states)`` in order until one yields an
    accepted answer.

    ``attempt(method, info)`` runs ``method`` once and returns a
    candidate vector; it may write ``info["preconditioner"]`` or
    ``info["lu_fill"]``, which the attempt's span receives.  A
    candidate is accepted when ``residual(candidate)`` is finite and at
    most ``bound`` and ``certify(method, candidate)``, if given, does
    not return an ``"uncertified"`` :class:`Certificate` (``None`` means
    the method needs none).  A :class:`SolverError` from an attempt is a
    ``"failed"`` attempt, any other exception an ``"error"``; these, a
    bad residual and an uncertified answer all move the chain on.  Each
    method opens one ``solve.attempt`` span; ``span`` (the caller's
    enclosing span) receives ``methods``, ``solved_by``, ``attempts``
    and ``residual``, the accepted answer's ``certificate``, ``gap`` and
    ``error_bound`` when it has one, and ``uncertified_l1`` when an
    uncertified answer was rejected before it.

    Returns ``(candidate, diagnostics)``.  Raises :class:`SolverError`
    with ``exc.diagnostics`` attached, ``stage`` in its context, when
    every attempt failed.
    """
    methods = policy.methods_for(n_states)
    span.set(methods=",".join(methods))
    diag = SolveDiagnostics(n_states=n_states)
    start = time.monotonic()
    tracer = get_tracer()
    uncertified = None
    try:
        for method in methods:
            info: dict = {}
            res = cert = None
            t0 = time.monotonic()
            with tracer.span("solve.attempt", method=method) as asp:
                try:
                    value = attempt(method, info)
                    res = float(residual(value))
                    if np.isfinite(res) and res <= bound and certify is not None:
                        cert = certify(method, value)
                except Exception as exc:  # noqa: BLE001 — any back-end blow-up
                    if isinstance(exc, SolverError):
                        outcome, detail = "failed", str(exc)
                    else:
                        outcome, detail = "error", f"{type(exc).__name__}: {exc}"
                    asp.set(outcome=outcome, error=type(exc).__name__)
                else:
                    if not (np.isfinite(res) and res <= bound):
                        outcome = "bad-residual"
                        detail = f"residual {res:.3e} above bound {bound:.3e}"
                    elif cert is not None and cert.status == "uncertified":
                        outcome = "uncertified"
                        detail = (f"error bound {cert.error_bound:.3e} above "
                                  f"{policy.residual_tol:.3e}, spectral gap {cert.gap:.3e}")
                        uncertified = value
                    else:
                        outcome, detail = "converged", ""
                    asp.set(outcome=outcome, residual=res)
                    if cert is not None:
                        asp.set(**_certificate_attributes(cert.status, cert.gap,
                                                          cert.error_bound))
                asp.set(**info)
            diag.record(method, outcome, time.monotonic() - t0,
                        residual=res, detail=detail,
                        preconditioner=info.get("preconditioner", ""),
                        certificate=cert)
            if outcome == "converged":
                diag.method = method
                if uncertified is not None:
                    diag.uncertified_l1 = float(np.abs(value - uncertified).sum())
                return value, diag
        failures = "; ".join(
            f"{a.method}: {a.outcome}" + (f" ({a.detail})" if a.detail else "")
            for a in diag.attempts
        )
        raise _chain_failure(
            f"all {len(methods)} fallback method(s) failed: {failures}", diag, stage)
    finally:
        diag.elapsed = time.monotonic() - start
        span.set(solved_by=diag.method or "none", attempts=len(diag.attempts))
        if diag.succeeded:
            span.set(residual=diag.residual)
            if diag.certificate:
                span.set(**_certificate_attributes(diag.certificate, diag.gap,
                                                   diag.error_bound))
        if diag.uncertified_l1 is not None:
            span.set(uncertified_l1=diag.uncertified_l1)


def _certificate_attributes(status: str, gap: float | None,
                            error_bound: float | None) -> dict:
    """A certificate's span attributes: its status, and its gap and
    error bound when the gap estimate converged."""
    attributes = {"certificate": status}
    if gap is not None:
        attributes.update(gap=gap, error_bound=error_bound)
    return attributes


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
    is the default chain, ordered by the size of the chain actually
    solved (:meth:`FallbackPolicy.methods_for`).  Method names are
    checked first, so a typo fails in O(1), before any structural
    analysis of the chain.

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
    The ``ctmc.solve`` span records the chain's ``states``, the
    ``methods`` tried and the ``exit_rate_spread`` of the chain solved.
    Every answer of a :data:`CERTIFIED_METHODS` method that passes the
    residual check is certified by :func:`repro.ctmc.steady.error_bound`
    against ``policy.residual_tol`` (see :func:`run_chain`).

    Raises :class:`SolverError` — with the full :class:`SolveDiagnostics`
    attached as ``exc.diagnostics`` — when every method of the policy
    has been exhausted.
    """
    policy = FallbackPolicy.of(policy)
    registry = SOLVERS if solvers is None else solvers
    policy.validate(registry)
    if reducible not in ("error", "bscc"):
        raise SolverError(f"unknown reducible policy {reducible!r}")
    n = chain.n_states
    if n == 0:
        raise SolverError("cannot solve an empty chain").with_context(stage="solve")
    with get_tracer().span("ctmc.solve", states=n) as span:
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
        methods = policy.methods_for(1)
        span.set(methods=",".join(methods), solved_by=methods[0], attempts=1,
                 residual=0.0)
        diag = SolveDiagnostics(n_states=1, method=methods[0])
        diag.record(methods[0], "converged", 0.0, residual=0.0,
                    detail="one state")
        return np.ones(1), diag

    def attempt(method: str, info: dict) -> np.ndarray:
        raw = registry[method](chain, policy.tol, policy.max_iterations, info)
        return _normalise(raw, method, policy.tol)

    def residual(pi: np.ndarray) -> float:
        return float(np.abs(chain.Q.T @ pi).max())

    def certify(method: str, pi: np.ndarray) -> Certificate | None:
        if method not in CERTIFIED_METHODS:
            return None
        gap, error = error_bound(chain, pi)
        if error is None:
            return Certificate("unknown")
        status = "certified" if error <= policy.residual_tol else "uncertified"
        return Certificate(status, gap, error)

    # Relative to the chain's own time scale: an absolute floor would
    # accept any vector on a slow chain.  Irreducible with n >= 2, so
    # every state has a positive exit rate.
    exits = chain.exit_rates()
    bound = policy.residual_tol * float(exits.max())
    spread = float(exits.max() / exits.min()) if exits.min() > 0 else float("inf")
    span.set(exit_rate_spread=spread)
    pi, diag = run_chain(policy, attempt, residual, bound, n_states=n, span=span,
                         certify=certify)
    diag.exit_rate_spread = spread
    get_metrics().gauge("residual").set(diag.residual)
    return pi, diag
