"""The cooperative wall-clock budget of a derivation.

State-space exploration is the part of the tool chain that can run away
— the paper is explicit that susceptibility to state-space explosion is
the price of exact numerical solution.  Each search's own ``max_states``
ceiling catches size blow-ups; an :class:`ExecutionBudget` adds the
wall-clock dimension behind a single cooperative ``checkpoint()`` call
that exploration loops invoke as they go (once per state in
:func:`~repro.core.explore.explore_lts`, once per breadth-first level in
:func:`~repro.core.explore.explore_levels`).  When it runs out the loop
raises :class:`~repro.exceptions.BudgetExceededError` carrying a
resumable summary (stage, states explored, frontier size, elapsed time)
instead of dying silently deep in the search.

Budgets are *cooperative*: they are only enforced at checkpoint calls,
never by pre-empting running code, so a search can overrun its deadline
by the time between two checkpoints, and a solve is not bounded at all.
"""

from __future__ import annotations

import time

from repro.exceptions import BudgetExceededError

__all__ = ["ExecutionBudget"]


class ExecutionBudget:
    """A wall-clock deadline, ``deadline_seconds`` from when it was built
    (``math.inf`` never expires), checked cooperatively during search.

    Its clock starts at construction, so a batch task builds its budget
    in the worker as it starts, never charging queueing time.
    """

    __slots__ = ("deadline_seconds", "_start", "_expiry")

    def __init__(self, deadline_seconds: float):
        self.deadline_seconds = deadline_seconds
        self._start = time.monotonic()
        self._expiry = self._start + deadline_seconds

    @classmethod
    def of(cls, *, deadline_seconds: float) -> "ExecutionBudget":
        """A budget expiring ``deadline_seconds`` from now."""
        return cls(deadline_seconds)

    def elapsed(self) -> float:
        """Seconds since the budget was built."""
        return time.monotonic() - self._start

    def checkpoint(self, *, stage: str, explored: int, frontier: int = 0) -> None:
        """Raise :class:`BudgetExceededError` once the deadline has passed.

        ``explored``/``frontier`` describe current progress and are
        embedded in the error so the caller can report (or resume) the
        partial work.
        """
        now = time.monotonic()
        if now < self._expiry:
            return
        raise BudgetExceededError(
            f"{stage}: wall-clock budget of {self.deadline_seconds:g}s "
            f"exhausted after {explored} states "
            f"({frontier} still on the frontier)",
            stage=stage, explored=explored, frontier=frontier,
            elapsed=now - self._start,
            limit=f"deadline={self.deadline_seconds:g}s",
        )

    def __repr__(self) -> str:
        left = max(self._expiry - time.monotonic(), 0.0)
        return f"ExecutionBudget({self.deadline_seconds:g}s, {left:.3f}s left)"
