"""Shared exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
still being able to discriminate between phases of the tool chain
(parsing, static checking, state-space derivation, numerical solution,
UML interchange, extraction and reflection).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    Every instance carries a :attr:`context` dict that pipeline layers
    enrich as the exception propagates (``stage``, ``model``,
    ``diagram``, ``attempt`` …), so a caller catching at the top of the
    tool chain can still tell *where* a failure originated without
    parsing the message text.
    """

    @property
    def context(self) -> dict:
        """Structured failure context, lazily created per instance."""
        ctx = getattr(self, "_context", None)
        if ctx is None:
            ctx = {}
            self._context = ctx
        return ctx

    def with_context(self, **entries) -> "ReproError":
        """Merge ``entries`` into :attr:`context` and return ``self``.

        Existing keys are kept (the innermost layer, which knows the
        most, wins), so re-raising code can call this unconditionally::

            raise exc.with_context(stage="solve", model=name)
        """
        for key, value in entries.items():
            self.context.setdefault(key, value)
        return self


class PepaSyntaxError(ReproError):
    """Raised when PEPA or PEPA-net source text cannot be parsed.

    Carries the position of the offending token when available.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class RateError(ReproError):
    """Raised on illegal rate arithmetic (e.g. active+passive in a choice)."""


class WellFormednessError(ReproError):
    """Raised by static checks: undefined constants, unguarded recursion,
    cooperation on passive-only action types, unbalanced nets, etc."""


class StateSpaceError(ReproError):
    """Raised during state-space derivation (e.g. the space exceeds the
    configured bound, or the model deadlocks when the analysis requires
    an ergodic chain)."""


class SolverError(ReproError):
    """Raised when a numerical solver fails to converge or the chain does
    not satisfy the solver's preconditions (e.g. reducible chain handed to
    a steady-state solver)."""


class BudgetExceededError(ReproError):
    """Raised when a cooperative execution budget (a wall-clock
    deadline) is exhausted mid-derivation.

    Unlike a bare timeout, the error carries a resumable summary of how
    far the work got: the stage name, the number of states explored, the
    size of the unexplored frontier at the moment the budget ran out,
    the elapsed wall-clock time and the limit that was hit.  All of
    these are also mirrored into :attr:`ReproError.context`.
    """

    def __init__(
        self,
        message: str,
        *,
        stage: str | None = None,
        explored: int | None = None,
        frontier: int | None = None,
        elapsed: float | None = None,
        limit: str | None = None,
    ):
        super().__init__(message)
        self.stage = stage
        self.explored = explored
        self.frontier = frontier
        self.elapsed = elapsed
        self.limit = limit
        self.with_context(
            stage=stage, explored=explored, frontier=frontier,
            elapsed=elapsed, limit=limit,
        )

    def summary(self) -> str:
        """One-line resumable progress summary (for logs and reports)."""
        parts = [f"budget exhausted ({self.limit or 'unknown limit'})"]
        if self.stage is not None:
            parts.append(f"stage={self.stage}")
        if self.explored is not None:
            parts.append(f"explored={self.explored} states")
        if self.frontier is not None:
            parts.append(f"frontier={self.frontier} pending")
        if self.elapsed is not None:
            parts.append(f"elapsed={self.elapsed:.3f}s")
        return ", ".join(parts)


class UmlModelError(ReproError):
    """Raised on ill-formed UML models (dangling edges, missing states)."""


class XmiError(ReproError):
    """Raised when an XMI document cannot be read or does not conform to
    the registered metamodel."""


class ExtractionError(ReproError):
    """Raised when a UML diagram falls outside the restrictions accepted
    by the extractor (paper section 6)."""


class ReflectionError(ReproError):
    """Raised when analysis results cannot be written back into the UML
    model (e.g. a result refers to an activity absent from the diagram)."""


class SimulationError(ReproError):
    """Raised by the stochastic simulation engine."""
