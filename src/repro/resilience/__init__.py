"""Resilience subsystem: fallback solver chains, execution budgets and
deterministic fault injection.

The Choreographer tool chain (UML → extract → PEPA net → CTMC solve →
reflect) composes several fallible stages; this package supplies the
machinery that keeps one failure from taking the whole run down:

* :mod:`repro.resilience.fallback` — an ordered policy of steady-state
  methods, each tried once in turn, and a structured
  :class:`~repro.resilience.fallback.SolveDiagnostics` record of every
  attempt;
* :mod:`repro.resilience.budget` — the cooperative wall-clock budget
  threaded through state-space derivation, raising a resumable
  :class:`~repro.exceptions.BudgetExceededError` instead of dying deep
  in a loop;
* :mod:`repro.resilience.faultinject` — deterministic fault injection
  at two levels: wrappers around :data:`repro.ctmc.steady.SOLVERS`
  entries that inject convergence failures, NaN vectors, slow
  convergence or transient exceptions on selected calls, and
  batch-layer chaos drills (:class:`~repro.resilience.faultinject.BatchFaultPlan`)
  that kill workers, hang tasks, fill the cache's disk or flip bits in
  published cache entries — used by the tests to prove the fallback,
  batch retry and recovery logic actually engage.
"""

from repro.exceptions import BudgetExceededError
from repro.resilience.budget import ExecutionBudget
from repro.resilience.fallback import (
    AttemptRecord,
    FallbackPolicy,
    SolveDiagnostics,
    solve_with_fallback,
)
from repro.resilience.faultinject import (
    BatchFault,
    BatchFaultPlan,
    FaultInjector,
    FaultSpec,
    InjectedWorkerCrash,
    get_batch_faults,
    inject_fault,
    set_batch_faults,
    use_batch_faults,
)

__all__ = [
    "AttemptRecord",
    "BatchFault",
    "BatchFaultPlan",
    "BudgetExceededError",
    "ExecutionBudget",
    "FallbackPolicy",
    "FaultInjector",
    "FaultSpec",
    "InjectedWorkerCrash",
    "SolveDiagnostics",
    "get_batch_faults",
    "inject_fault",
    "set_batch_faults",
    "solve_with_fallback",
    "use_batch_faults",
]
