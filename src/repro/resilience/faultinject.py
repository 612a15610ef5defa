"""Deterministic fault injection for solvers and the batch layer.

Robustness code that is never exercised is decoration.  This module
wraps entries of :data:`repro.ctmc.steady.SOLVERS` so tests (and chaos
drills) can make a chosen method fail in a controlled, reproducible way
— a convergence failure on exactly the Nth call, a NaN vector, a zero
vector, an artificial slowdown, or an arbitrary transient exception —
and then prove that the fallback chain and the pipeline degradation
actually engage.

Faults are keyed on the wrapper's own 1-based call counter, so the
injection is deterministic regardless of timing::

    with inject_fault("direct", FaultSpec(kind="converge")):
        pi, diag = solve_with_fallback(chain)   # direct fails, gmres wins

Beyond the solver registry, :class:`BatchFaultPlan` injects *batch
layer* faults — an abrupt worker death on task k, a hung task, a full
disk under the derivation cache, a bit flip in a published cache entry
— keyed on ``(task id, 1-based attempt)``, so every recovery path of
the supervised :mod:`repro.batch.engine` (retry, pool rebuild,
quarantine, checkpoint/resume, corruption sweep) can be proven under
deterministic chaos rather than assumed.  Plans are picklable and
installed ambiently (:func:`set_batch_faults`), which is how the batch
engine ships them into its worker processes.
"""

from __future__ import annotations

import errno
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.ctmc.steady import SOLVERS
from repro.exceptions import SolverError

__all__ = [
    "FaultSpec",
    "FaultInjector",
    "inject_fault",
    "FAULT_KINDS",
    "BATCH_FAULT_KINDS",
    "BatchFault",
    "BatchFaultPlan",
    "InjectedWorkerCrash",
    "get_batch_faults",
    "set_batch_faults",
    "use_batch_faults",
    "current_task",
    "get_current_task",
]

#: The supported fault kinds (see :class:`FaultSpec`).
FAULT_KINDS = ("converge", "nan", "zero", "slow", "exception")


@dataclass(frozen=True)
class FaultSpec:
    """What to inject and when.

    ``kind`` — ``"converge"`` raises a :class:`SolverError` as a
    non-converging method would; ``"nan"`` returns an all-NaN vector;
    ``"zero"`` returns an all-zero vector (both are rejected downstream
    by normalisation); ``"slow"`` sleeps ``delay`` seconds and then
    delegates to the real solver; ``"exception"`` raises
    ``exception(message)`` (default :class:`RuntimeError`) — a
    transient infrastructure fault.

    ``calls`` lists the 1-based call indices that fault; every other
    call passes straight through to the wrapped solver.
    """

    kind: str
    calls: tuple[int, ...] = (1,)
    delay: float = 0.0
    exception: type[Exception] | None = None
    message: str = "injected fault"

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )

    @classmethod
    def first_n(cls, kind: str, n: int, **kw) -> "FaultSpec":
        """A spec faulting the first ``n`` calls (transient-fault shape)."""
        return cls(kind=kind, calls=tuple(range(1, n + 1)), **kw)

    def applies_to(self, call_index: int) -> bool:
        """True if the given 1-based call should fault."""
        return call_index in self.calls


class FaultInjector:
    """Context manager that swaps one solver registry entry for a
    faulting wrapper, restoring the original on exit.

    Attributes after (or during) use: ``calls`` — how many times the
    wrapped solver was invoked; ``log`` — a list of
    ``(call_index, "fault" | "pass")`` pairs.
    """

    def __init__(self, method: str, spec: FaultSpec, solvers: dict | None = None):
        self.method = method
        self.spec = spec
        self.solvers = SOLVERS if solvers is None else solvers
        if method not in self.solvers:
            raise SolverError(
                f"cannot inject a fault into unknown method {method!r}"
            )
        self.calls = 0
        self.log: list[tuple[int, str]] = []
        self._original = None

    def _wrapped(self, chain, tol, max_iterations, info=None):
        self.calls += 1
        idx = self.calls
        spec = self.spec
        if spec.applies_to(idx):
            self.log.append((idx, "fault"))
            if spec.kind == "converge":
                raise SolverError(
                    f"{spec.message}: injected convergence failure on "
                    f"call {idx} of {self.method} (info=999)"
                )
            if spec.kind == "nan":
                return np.full(chain.n_states, np.nan)
            if spec.kind == "zero":
                return np.zeros(chain.n_states)
            if spec.kind == "exception":
                raise (spec.exception or RuntimeError)(spec.message)
            # "slow": delay, then behave normally
            time.sleep(spec.delay)
        else:
            self.log.append((idx, "pass"))
        return self._original(chain, tol, max_iterations, info)

    def __enter__(self) -> "FaultInjector":
        """Install the faulting wrapper in the registry."""
        self._original = self.solvers[self.method]
        self.solvers[self.method] = self._wrapped
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Restore the original solver, even if the block raised."""
        self.solvers[self.method] = self._original
        self._original = None


def inject_fault(method: str, spec: FaultSpec,
                 solvers: dict | None = None) -> FaultInjector:
    """Convenience constructor: ``with inject_fault("gmres", spec): ...``.

    Wraps ``solvers[method]`` (default: the live
    :data:`repro.ctmc.steady.SOLVERS` registry) for the duration of the
    ``with`` block.
    """
    return FaultInjector(method, spec, solvers=solvers)


# ---------------------------------------------------------------------------
# Batch-layer faults
# ---------------------------------------------------------------------------

#: The supported batch-layer fault kinds (see :class:`BatchFault`).
BATCH_FAULT_KINDS = ("kill", "hang", "task-error", "cache-enospc", "cache-bitflip")


class InjectedWorkerCrash(BaseException):
    """Inline-mode stand-in for an abrupt worker death.

    With ``jobs >= 2`` a ``kill`` fault really SIGKILLs the worker
    process so the supervisor sees a genuine ``BrokenProcessPool``;
    with ``jobs == 1`` the task runs in the engine's own process, where
    a real kill would take the whole run down, so the fault raises this
    instead and the inline supervisor treats it exactly like a dead
    worker.  Deliberately a :class:`BaseException`: the task-level
    ``except Exception`` capture must never swallow a simulated crash.
    """


@dataclass(frozen=True)
class BatchFault:
    """One deterministic batch-layer fault.

    ``kind`` — ``"kill"`` terminates the worker process abruptly
    (SIGKILL; an :class:`InjectedWorkerCrash` when running inline);
    ``"hang"`` sleeps ``delay`` seconds at task start, long enough to
    trip the supervisor's per-task timeout; ``"task-error"`` raises a
    transient :class:`RuntimeError` inside the task; ``"cache-enospc"``
    makes the derivation cache's next store fail with ``ENOSPC`` (full
    disk); ``"cache-bitflip"`` flips one byte of the entry the cache
    just published, so a later fetch must detect the corruption.

    ``task`` is the :class:`~repro.batch.engine.BatchTask` id to fault
    (``None`` or ``"*"`` at parse time matches every task); ``attempts``
    lists the 1-based execution attempts that fault, so a
    ``kill @ (1,)`` proves the retry path while a ``kill @ (1, 2, 3)``
    proves quarantine.
    """

    kind: str
    task: str | None = None
    attempts: tuple[int, ...] = (1,)
    delay: float = 30.0
    message: str = "injected batch fault"

    def __post_init__(self):
        if self.kind not in BATCH_FAULT_KINDS:
            raise ValueError(
                f"unknown batch fault kind {self.kind!r}; "
                f"choose from {BATCH_FAULT_KINDS}"
            )

    def matches(self, task_id: str, attempt: int) -> bool:
        """True if this fault fires for ``task_id`` on ``attempt``."""
        return (self.task is None or self.task == task_id) and attempt in self.attempts


@dataclass(frozen=True)
class BatchFaultPlan:
    """A picklable set of batch faults, shipped to every worker.

    Built programmatically or parsed from CLI drill specs of the form
    ``kind:task[@attempts][:delay]``::

        BatchFaultPlan.parse(["kill:model@1"])          # crash once, recover
        BatchFaultPlan.parse(["hang:model@1,2:30"])     # hang twice for 30 s
        BatchFaultPlan.parse(["cache-bitflip:*"])       # corrupt every store
    """

    faults: tuple[BatchFault, ...] = ()

    @classmethod
    def parse(cls, specs) -> "BatchFaultPlan":
        """Build a plan from ``kind:task[@attempts][:delay]`` spec strings."""
        faults = []
        for spec in specs:
            kind, sep, rest = spec.partition(":")
            if not sep or not rest:
                raise ValueError(
                    f"batch fault spec {spec!r} must look like "
                    "'kind:task[@attempts][:delay]'"
                )
            rest, _, delay_text = rest.partition(":")
            task, _, attempts_text = rest.partition("@")
            faults.append(BatchFault(
                kind=kind,
                task=None if task in ("", "*") else task,
                attempts=(
                    tuple(int(a) for a in attempts_text.split(","))
                    if attempts_text else (1,)
                ),
                delay=float(delay_text) if delay_text else 30.0,
            ))
        return cls(faults=tuple(faults))

    def faults_for(self, task_id: str, attempt: int,
                   kinds: tuple[str, ...]) -> list[BatchFault]:
        """The matching faults of the given kinds, in plan order."""
        return [f for f in self.faults
                if f.kind in kinds and f.matches(task_id, attempt)]

    def apply_task_start(self, task_id: str, attempt: int,
                         *, inline: bool) -> None:
        """Fire any task-level fault due at the start of this attempt.

        ``kill`` never returns (SIGKILL, or raises
        :class:`InjectedWorkerCrash` when ``inline``); ``hang`` sleeps;
        ``task-error`` raises a transient :class:`RuntimeError`.
        """
        for fault in self.faults_for(task_id, attempt,
                                     ("kill", "hang", "task-error")):
            if fault.kind == "kill":
                if inline:
                    raise InjectedWorkerCrash(
                        f"{fault.message}: simulated worker death on "
                        f"task {task_id!r} attempt {attempt}"
                    )
                os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover
            elif fault.kind == "hang":
                time.sleep(fault.delay)
            else:  # task-error
                raise RuntimeError(
                    f"{fault.message}: injected transient error on "
                    f"task {task_id!r} attempt {attempt}"
                )


_active_batch_faults: BatchFaultPlan | None = None
#: The task the current process is executing, as ``(task_id, attempt)``;
#: set by the batch engine so cache-level faults can key on it.
_current_task: tuple[str, int] | None = None


def get_batch_faults() -> BatchFaultPlan | None:
    """The ambient batch fault plan (``None`` = no chaos, zero cost)."""
    return _active_batch_faults


def set_batch_faults(plan: BatchFaultPlan | None) -> BatchFaultPlan | None:
    """Install ``plan`` (``None`` = disable); returns the previous one."""
    global _active_batch_faults
    previous = _active_batch_faults
    _active_batch_faults = plan
    return previous


@contextmanager
def use_batch_faults(plan: BatchFaultPlan | None) -> Iterator[BatchFaultPlan | None]:
    """Scoped installation: the previous plan is restored on exit."""
    previous = set_batch_faults(plan)
    try:
        yield plan
    finally:
        set_batch_faults(previous)


def get_current_task() -> tuple[str, int] | None:
    """The ``(task_id, attempt)`` this process is executing, if any."""
    return _current_task


@contextmanager
def current_task(task_id: str, attempt: int) -> Iterator[None]:
    """Mark the task this process is executing for the ``with`` block."""
    global _current_task
    previous = _current_task
    _current_task = (task_id, attempt)
    try:
        yield
    finally:
        _current_task = previous


def maybe_fault_cache_store(key) -> None:
    """Raise ``OSError(ENOSPC)`` if a ``cache-enospc`` fault is due.

    Called by :meth:`repro.batch.cache.DerivationCache.store` before it
    touches the filesystem; a no-op unless a plan is installed *and*
    the current task/attempt matches.
    """
    plan, task = _active_batch_faults, _current_task
    if plan is None or task is None:
        return
    if plan.faults_for(task[0], task[1], ("cache-enospc",)):
        raise OSError(errno.ENOSPC, f"injected ENOSPC storing {key.describe()}")


def maybe_fault_cache_bitflip(path) -> bool:
    """Flip one byte of a just-published cache entry if a fault is due.

    Returns True when a flip happened.  The flipped byte sits past the
    entry's checksum header, so the next fetch (or a ``verify()``
    sweep) must detect the mismatch and treat the entry as corrupt.
    """
    plan, task = _active_batch_faults, _current_task
    if plan is None or task is None:
        return False
    if not plan.faults_for(task[0], task[1], ("cache-bitflip",)):
        return False
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    return True
