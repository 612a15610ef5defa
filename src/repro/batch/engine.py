"""The multiprocess batch engine: N workers, one coherent report.

A :class:`BatchTask` names a unit of pipeline work (an XMI document, a
textual PEPA model or net, one experiment of EXPERIMENTS.md, or any
importable callable); a :class:`BatchEngine` runs a list of them across
``jobs`` worker processes and folds the outcomes into a
:class:`BatchReport`.

Design contract — **parallel runs are deterministic**: the report's
content (per-task measures, merged metrics totals, event order) depends
only on the task list, never on worker scheduling.  Three mechanisms
enforce this:

* results are collected in task-submission order, not completion order;
* each task runs under its *own* fresh
  :class:`~repro.obs.ObsContext` (tracer/metrics/events), so concurrent
  tasks cannot interleave writes; the engine merges the
  per-task snapshots afterwards in task order via
  :mod:`repro.obs.merge`;
* worker processes start from a clean slate: the pool initialiser calls
  :func:`repro.obs.reset_ambient` (a forked worker must not record into
  an inherited parent snapshot) and installs the worker's own ambient
  :class:`~repro.batch.cache.DerivationCache`.

``jobs=1`` executes inline in the calling process through exactly the
same per-task code path, so serial and parallel runs produce identical
measures documents — the property the CI batch smoke step pins
byte-for-byte.

**Supervision** — the engine assumes the real world: workers segfault,
solves hang, tasks throw.  Every task runs under a
:class:`RetryPolicy`: a failed attempt is retried with exponential
backoff (batch failures are transient, so this is the one retry loop
in the code base), a worker that dies abruptly (``BrokenProcessPool``)
poisons only the tasks it was running — the pool is rebuilt, unstarted
tasks are re-queued without losing an attempt, and crash suspects are
re-tried in *isolation* (a one-worker pool) so a repeat crash blames
exactly one task — and a task that exceeds ``task_timeout`` has its
pool torn down and is likewise retried in isolation.  A task that
exhausts its attempts crashing or hanging is **quarantined**: marked
failed with a structured error, never blocking the rest of the run.
Per-task wall-clock timeouts require a pool (``jobs >= 2``); inline
runs bound tasks cooperatively via budgets instead.

**Checkpointing** — give the engine a journal path and every final
per-task result is appended (one fsync'd JSONL line, schema
``repro-journal/1``) as it lands; :meth:`BatchEngine.resume` replays
the recorded results and runs only what's missing, producing a report
byte-identical to an uninterrupted run.  See
:mod:`repro.batch.journal`.

Budgets: a task's ``deadline_seconds`` (or the engine-wide default)
becomes an :class:`~repro.resilience.budget.ExecutionBudget` *in the
worker as the task starts*, so the deadline clock never charges
queueing time.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import multiprocessing

from repro.batch.cache import DerivationCache, set_cache, use_cache
from repro.batch.journal import RunJournal, tasks_fingerprint
from repro.obs import (
    EventStream,
    MetricsRegistry,
    ObsContext,
    ProfileConfig,
    SamplingProfiler,
    SpanResourceProbe,
    Tracer,
    get_events,
    get_metrics,
    merge_events,
    merge_metrics,
    merge_profiles,
    merge_traces,
    reset_ambient,
    use_obs,
)
from repro.resilience.budget import ExecutionBudget
from repro.resilience.faultinject import (
    BatchFaultPlan,
    InjectedWorkerCrash,
    current_task,
    get_batch_faults,
    set_batch_faults,
    use_batch_faults,
)
from repro.utils.formatting import format_table

__all__ = [
    "BatchTask",
    "BatchResult",
    "BatchReport",
    "BatchEngine",
    "RetryPolicy",
    "run_batch",
]

@dataclass(frozen=True)
class RetryPolicy:
    """How the engine supervises one task's attempts.

    ``retries`` extra attempts follow a failed first one (so
    ``retries=2`` means at most three executions); before attempt *k*
    the supervisor sleeps ``backoff * 2**(k-2)`` seconds, capped at
    ``max_backoff``.  Worker crashes and hangs are transient, so unlike
    a steady-state method, which runs once, a task is worth retrying.
    ``task_timeout`` bounds one attempt's wall clock in pooled
    runs (``None`` = unbounded); a timed-out attempt counts as failed
    and its worker pool is rebuilt, since a running task cannot be
    cancelled, only outlived.
    """

    retries: int = 2
    backoff: float = 0.1
    max_backoff: float = 2.0
    task_timeout: float | None = None

    def __post_init__(self):
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(f"task_timeout must be > 0, got {self.task_timeout}")

    @property
    def max_attempts(self) -> int:
        return self.retries + 1

    def backoff_before(self, attempt: int) -> float:
        """Seconds to sleep before ``attempt`` (1-based; 0 for the first)."""
        if attempt <= 1 or self.backoff == 0:
            return 0.0
        return min(self.backoff * 2.0 ** (attempt - 2), self.max_backoff)


@dataclass(frozen=True)
class BatchTask:
    """One unit of batch work.

    ``kind`` selects the runner (see :mod:`repro.batch.tasks`);
    ``payload`` is its JSON-able argument dict; ``deadline_seconds``
    optionally bounds the task's derivations in wall-clock time, the
    clock starting in the worker as the task does.
    """

    id: str
    kind: str
    payload: dict[str, Any] = field(default_factory=dict)
    deadline_seconds: float | None = None


@dataclass
class BatchResult:
    """Everything one task produced, measures and observability alike.

    ``measures`` is the deterministic, JSON-able outcome; ``trace`` /
    ``metrics`` / ``events`` are the worker's observability snapshots
    for this task, and ``events_dropped`` counts the events its bounded
    stream evicted.  The ``cache.*`` counters of ``metrics`` are the
    task's cache traffic.
    ``attempts`` counts executions (1 in a healthy run);
    ``quarantined`` marks a task that exhausted its attempts crashing
    or hanging; ``error_context`` carries the structured
    :attr:`repro.exceptions.ReproError.context` of a captured failure.
    Timing (``duration_s``), attempts and error context are reported
    but deliberately excluded from :meth:`BatchReport.measures_document`
    — they can vary run to run without the *results* differing.
    """

    task_id: str
    kind: str
    ok: bool
    measures: dict[str, Any] = field(default_factory=dict)
    error: str | None = None
    duration_s: float = 0.0
    trace: dict[str, Any] = field(default_factory=lambda: {"schema": "repro-trace/1", "traces": []})
    metrics: dict[str, Any] = field(default_factory=lambda: {"schema": "repro-metrics/1", "metrics": {}})
    events: list[dict[str, Any]] = field(default_factory=list)
    events_dropped: int = 0
    attempts: int = 1
    quarantined: bool = False
    error_context: dict[str, Any] = field(default_factory=dict)
    #: ``repro-profile/1`` samples for this task; ``{}`` unless the run
    #: was profiled (the engine's :class:`~repro.obs.ProfileConfig`).
    profile: dict[str, Any] = field(default_factory=dict)


def _jsonable_context(context: dict[str, Any], *, limit: int = 200) -> dict[str, Any]:
    """A JSON-able, size-bounded copy of an exception's context dict."""
    safe: dict[str, Any] = {}
    for key, value in context.items():
        if isinstance(value, str):
            safe[str(key)] = value[:limit]
        elif isinstance(value, (int, float, bool)) or value is None:
            safe[str(key)] = value
        else:
            safe[str(key)] = repr(value)[:limit]
    return safe


@contextmanager
def _profiled(
    config: ProfileConfig | None,
) -> Iterator[tuple[SamplingProfiler | None, SpanResourceProbe | None]]:
    """Run a per-task profiler and build its resource probe when
    profiling is on; yields ``(profiler, probe)``, both ``None`` when off.

    Each task gets its *own* sampler (fresh sample set, fresh clock) so
    per-task profiles stay attributable and merge deterministically in
    task order; the probe, handed to the task's tracer, stamps its spans
    with cpu/memory and is closed on exit.
    """
    if config is None:
        yield None, None
        return
    profiler = SamplingProfiler(config.interval)
    probe = SpanResourceProbe(memory=config.memory)
    try:
        with profiler:
            yield profiler, probe
    finally:
        probe.close()


def execute_task(
    task: BatchTask,
    attempt: int = 1,
    *,
    inline: bool = False,
    profile: ProfileConfig | None = None,
) -> BatchResult:
    """Run one task attempt under a fresh :class:`~repro.obs.ObsContext`.

    This is the single execution path shared by inline (``jobs=1``) and
    pooled runs: fresh tracer/metrics/events installed for the duration
    of the task (profiled as ``profile`` asks), the task's budget
    built here (worker-side), and failures captured into the
    result so one poisoned task degrades itself only.  The capture is deliberate about *which* failures
    degrade gracefully:

    * ``Exception`` — captured; a :class:`~repro.exceptions.ReproError`
      additionally contributes its structured ``.context`` dict;
    * ``MemoryError`` — captured with truncated context (the worker may
      be too starved to format a full message);
    * ``SystemExit`` — captured (a task calling ``sys.exit`` must not
      silently take a worker down);
    * ``KeyboardInterrupt`` — **re-raised**: the user's Ctrl-C stops
      the run, it is not a task failure;
    * :class:`~repro.resilience.faultinject.InjectedWorkerCrash` —
      propagates: it stands in for a dead worker and must reach the
      supervisor, never a result.

    An ambient :class:`~repro.resilience.faultinject.BatchFaultPlan`
    fires its task-level faults here, at attempt start.
    """
    from repro.batch.tasks import run_task

    plan = get_batch_faults()
    budget = (None if task.deadline_seconds is None
              else ExecutionBudget.of(deadline_seconds=task.deadline_seconds))
    measures: dict[str, Any] = {}
    error: str | None = None
    error_context: dict[str, Any] = {}
    start = time.perf_counter()
    with current_task(task.id, attempt), \
            _profiled(profile) as (profiler, probe), \
            use_obs(ObsContext(Tracer(probe=probe), MetricsRegistry(),
                               EventStream())) as obs:
        try:
            if plan is not None:
                plan.apply_task_start(task.id, attempt, inline=inline)
            measures = run_task(task, budget=budget)
        except KeyboardInterrupt:
            raise
        except MemoryError as exc:
            measures = {}
            error = f"MemoryError: {str(exc)[:120]}"
            error_context = {"truncated": True, "attempt": attempt}
        except SystemExit as exc:
            error = f"SystemExit: {exc.code!r}"
            error_context = {"exit_code": repr(exc.code), "attempt": attempt}
        except Exception as exc:  # captured, not raised: the batch goes on
            error = f"{type(exc).__name__}: {exc}"
            raw_context = getattr(exc, "context", None)
            if isinstance(raw_context, dict):
                error_context = _jsonable_context(raw_context)
    duration = time.perf_counter() - start
    return BatchResult(
        task_id=task.id,
        kind=task.kind,
        ok=error is None,
        measures=measures,
        error=error,
        duration_s=duration,
        trace=obs.tracer.to_dict(),
        metrics=obs.metrics.as_dict(),
        events=obs.events.to_dicts(),
        events_dropped=obs.events.dropped,
        attempts=attempt,
        error_context=error_context,
        profile=profiler.to_dict() if profiler is not None else {},
    )


def _worker_init(
    cache_dir: str | None,
    cache_max_bytes: int | None = None,
    faults: BatchFaultPlan | None = None,
) -> None:
    """Pool initialiser: clean observability slate, cache, fault plan."""
    reset_ambient()
    set_cache(
        DerivationCache(cache_dir, max_bytes=cache_max_bytes) if cache_dir else None
    )
    set_batch_faults(faults)


def _supervised_entry(
    task: BatchTask,
    attempt: int,
    marker_path: str,
    profile: ProfileConfig | None = None,
) -> BatchResult:
    """Worker-side wrapper: drop a start marker, then execute.

    The marker file is touched *before* any task code (or injected
    fault) runs, so when a pool breaks the supervisor can separate the
    tasks that had started — crash suspects — from the ones still
    queued, which are requeued without being charged an attempt.
    """
    Path(marker_path).touch()
    return execute_task(task, attempt, profile=profile)


#: The ``cache.<name>`` counters :meth:`BatchReport.cache_totals` sums.
CACHE_TALLIES = ("hits", "misses", "stores", "corrupt", "evictions", "store_errors")


@dataclass
class BatchReport:
    """The merged outcome of one batch run."""

    results: list[BatchResult]
    jobs: int
    duration_s: float
    cache_dir: str | None = None
    #: Supervision audit trail: retries, quarantines, pool rebuilds.
    incidents: list[dict[str, Any]] = field(default_factory=list)
    journal_path: str | None = None

    @property
    def ok(self) -> bool:
        """True when every task succeeded."""
        return all(result.ok for result in self.results)

    @property
    def failures(self) -> list[BatchResult]:
        return [result for result in self.results if not result.ok]

    @property
    def quarantined(self) -> list[BatchResult]:
        """Tasks that exhausted their attempts crashing or hanging."""
        return [result for result in self.results if result.quarantined]

    @property
    def retries(self) -> int:
        """Extra attempts spent across the whole run (0 when healthy)."""
        return sum(result.attempts - 1 for result in self.results)

    @property
    def events_dropped(self) -> int:
        """Events the tasks' bounded streams evicted, over the whole run."""
        return sum(result.events_dropped for result in self.results)

    # ------------------------------------------------------------------
    # Merged observability views (task order ⇒ deterministic)
    # ------------------------------------------------------------------
    def merged_trace(self) -> dict[str, Any]:
        """One ``repro-trace/1`` forest over every task, in task order."""
        return merge_traces(result.trace for result in self.results)

    def merged_metrics(self) -> dict[str, Any]:
        """One ``repro-metrics/1`` snapshot summed over every task."""
        return merge_metrics(result.metrics for result in self.results)

    def merged_events(self) -> list[dict[str, Any]]:
        """Every task's events, tagged with the task id, in task order."""
        return merge_events(
            [(result.task_id, result.events) for result in self.results]
        )

    def merged_profile(self) -> dict[str, Any]:
        """One ``repro-profile/1`` document summed over every profiled task."""
        return merge_profiles(
            result.profile for result in self.results if result.profile
        )

    def cache_totals(self) -> dict[str, int]:
        """Cache traffic over every task: the sums of the ``cache.*``
        counters in each task's metrics, keyed by :data:`CACHE_TALLIES`;
        ``{}`` for a run without a cache."""
        if not self.cache_dir:
            return {}
        totals = dict.fromkeys(CACHE_TALLIES, 0)
        for result in self.results:
            metrics = result.metrics.get("metrics", {})
            for name in CACHE_TALLIES:
                totals[name] += metrics.get(f"cache.{name}", {}).get("value", 0)
        return totals

    # ------------------------------------------------------------------
    # Deterministic content
    # ------------------------------------------------------------------
    def measures_document(self) -> dict[str, Any]:
        """The schedule-independent content of the run.

        Identical for serial and parallel executions of the same task
        list — no timings, no worker identities, no cache traffic (a
        warm cache changes speed, never results), no attempt counts or
        error contexts (a retried-then-recovered task *is* a healthy
        task, and contexts may carry wall-clock values).
        """
        return {
            "schema": "repro-batch/1",
            "tasks": [
                {
                    "id": result.task_id,
                    "kind": result.kind,
                    "ok": result.ok,
                    "measures": result.measures,
                    "error": result.error,
                }
                for result in self.results
            ],
        }

    def measures_json(self) -> str:
        """Canonical JSON of :meth:`measures_document` (byte-comparable)."""
        return json.dumps(self.measures_document(), sort_keys=True, indent=2) + "\n"

    def summary(self) -> str:
        """Aligned per-task status table plus the run's vital signs."""
        rows = [
            [
                result.task_id,
                result.kind,
                (
                    "QUARANTINED" if result.quarantined
                    else "ok" if result.ok
                    else "FAILED"
                ),
                f"{result.duration_s:.3f}s",
                result.error or "",
            ]
            for result in self.results
        ]
        table = format_table(["task", "kind", "status", "time", "error"], rows)
        totals = self.cache_totals()
        cache_line = (
            f"cache: {totals['hits']} hits, {totals['misses']} misses, "
            f"{totals['corrupt']} corrupt"
            if totals
            else "cache: off"
        )
        if totals.get("evictions"):
            cache_line += f", {totals['evictions']} evicted"
        if self.ok:
            status = "ok"
        else:
            # Name the casualties inline: corpus tasks carry their seed
            # in the id, so a truncated CI log alone says what to replay.
            named = ", ".join(r.task_id for r in self.failures[:5])
            if len(self.failures) > 5:
                named += f", +{len(self.failures) - 5} more"
            status = f"{len(self.failures)} task(s) FAILED ({named})"
        lines = (
            f"{table}\n{len(self.results)} tasks on {self.jobs} worker(s) "
            f"in {self.duration_s:.3f}s — {status}\n{cache_line}"
        )
        if self.retries or self.quarantined:
            lines += (
                f"\nsupervision: {self.retries} retried attempt(s), "
                f"{len(self.quarantined)} quarantined"
            )
        return lines


class _WaveOutcome:
    """What one pool wave produced, sorted by fate."""

    def __init__(self):
        self.finished: list[tuple[BatchTask, int, BatchResult]] = []
        self.casualties: list[tuple[BatchTask, int, str]] = []  # crash | timeout
        self.innocent: list[BatchTask] = []  # requeue, attempt not consumed


class BatchEngine:
    """Run batches of tasks across supervised worker processes.

    ``jobs=1`` runs inline (no pool); ``jobs>1`` uses a process pool
    whose workers are initialised with a clean ambient slate and their
    own :class:`~repro.batch.cache.DerivationCache` over the shared
    ``cache_dir`` (bounded by ``cache_max_bytes``).  ``deadline_seconds``
    applies to tasks without one; ``retry`` governs supervision;
    ``journal`` enables checkpointing; ``faults`` installs a chaos plan
    (engine-wide and in every worker); ``profile`` is passed to every
    task, which then runs its own sampler and resource probe.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache_dir: str | os.PathLike | None = None,
        deadline_seconds: float | None = None,
        mp_start: str | None = None,
        retry: RetryPolicy | None = None,
        journal: str | os.PathLike | None = None,
        cache_max_bytes: int | None = None,
        faults: BatchFaultPlan | None = None,
        profile: ProfileConfig | None = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.deadline_seconds = deadline_seconds
        self.mp_start = mp_start
        self.retry = retry if retry is not None else RetryPolicy()
        self.journal_path = str(journal) if journal is not None else None
        self.cache_max_bytes = cache_max_bytes
        self.faults = faults
        self.profile = profile

    def _context(self) -> multiprocessing.context.BaseContext:
        """The pool's start method: ``mp_start``, else ``fork`` where the
        platform offers it (workers inherit the warm interpreter), else
        ``spawn``.  ``reset_ambient`` makes both safe."""
        method = self.mp_start
        if method is None:
            method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        return multiprocessing.get_context(method)

    def _with_budgets(self, tasks: Sequence[BatchTask]) -> list[BatchTask]:
        if self.deadline_seconds is None:
            return list(tasks)
        return [
            task if task.deadline_seconds is not None
            else replace(task, deadline_seconds=self.deadline_seconds)
            for task in tasks
        ]

    def _effective_faults(self) -> BatchFaultPlan | None:
        return self.faults if self.faults is not None else get_batch_faults()

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(self, tasks: Iterable[BatchTask]) -> BatchReport:
        """Execute every task; returns the merged report.

        Task ids must be unique — they key the per-task results, tag
        the merged event stream and address the journal.
        """
        todo = self._with_budgets(list(tasks))
        ids = [task.id for task in todo]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate task ids in batch: {ids}")
        journal = (
            RunJournal.create(self.journal_path, todo)
            if self.journal_path else None
        )
        return self._execute(todo, journal=journal, replay={})

    def resume(
        self,
        journal: str | os.PathLike,
        tasks: Iterable[BatchTask] | None = None,
    ) -> BatchReport:
        """Continue a journalled run: replay what finished, run the rest.

        The journal header carries the full task list, so ``tasks`` is
        optional; when given, it must fingerprint-match the journal
        (same ids, kinds, payloads, budgets, order) or ``ValueError``
        is raised — resuming a *different* batch from an old journal
        would silently splice unrelated results.  Quarantined results
        are not replayed: the crashed tasks get a fresh chance.
        """
        loaded = RunJournal.load(journal)
        if tasks is not None:
            supplied = self._with_budgets(list(tasks))
            if tasks_fingerprint(supplied) != loaded.fingerprint:
                raise ValueError(
                    f"journal {loaded.path} does not match the supplied task "
                    "list (fingerprint mismatch); resume with the original "
                    "inputs or none at all"
                )
        return self._execute(loaded.tasks, journal=loaded, replay=loaded.replayable())

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _execute(
        self,
        todo: list[BatchTask],
        *,
        journal: RunJournal | None,
        replay: dict[str, BatchResult],
    ) -> BatchReport:
        start = time.perf_counter()
        pending = [task for task in todo if task.id not in replay]
        incidents: list[dict[str, Any]] = []
        plan = self._effective_faults()
        if self.jobs == 1 or len(pending) <= 1:
            fresh = self._run_inline(pending, plan, journal, incidents)
        else:
            fresh = self._run_pool(pending, plan, journal, incidents)
        by_id = dict(replay)
        by_id.update(fresh)
        results = [by_id[task.id] for task in todo]
        duration = time.perf_counter() - start
        return BatchReport(
            results=results,
            jobs=self.jobs,
            duration_s=duration,
            cache_dir=self.cache_dir,
            incidents=(list(journal.incidents) if journal is not None else incidents),
            journal_path=str(journal.path) if journal is not None else None,
        )

    def _incident(
        self,
        incidents: list[dict[str, Any]],
        journal: RunJournal | None,
        **fields: Any,
    ) -> None:
        incidents.append(fields)
        if journal is not None:
            journal.append_incident(fields)
        name = f"batch.{fields.get('incident', 'incident')}"
        get_events().emit(name, **{k: v for k, v in fields.items() if k != "incident"})
        get_metrics().counter(
            "batch.retries" if fields.get("incident") == "retry"
            else "batch.quarantined" if fields.get("incident") == "quarantine"
            else "batch.pool_rebuilds"
        ).inc()

    def _finalize(
        self,
        result: BatchResult,
        journal: RunJournal | None,
        results: dict[str, BatchResult],
    ) -> None:
        results[result.task_id] = result
        if journal is not None:
            journal.append_result(result)

    def _quarantine_result(
        self, task: BatchTask, attempt: int, reason: str
    ) -> BatchResult:
        if reason == "timeout":
            error = (
                f"TaskTimeout: exceeded {self.retry.task_timeout}s wall clock "
                f"(after {attempt} attempt(s))"
            )
        else:
            error = (
                "WorkerCrash: worker process died while executing this task "
                f"(after {attempt} attempt(s))"
            )
        return BatchResult(
            task_id=task.id,
            kind=task.kind,
            ok=False,
            error=error,
            error_context={"reason": reason, "attempts": attempt},
            attempts=attempt,
            quarantined=True,
        )

    # -- inline ---------------------------------------------------------
    def _run_inline(
        self,
        pending: list[BatchTask],
        plan: BatchFaultPlan | None,
        journal: RunJournal | None,
        incidents: list[dict[str, Any]],
    ) -> dict[str, BatchResult]:
        cache = (
            DerivationCache(self.cache_dir, max_bytes=self.cache_max_bytes)
            if self.cache_dir else None
        )
        results: dict[str, BatchResult] = {}
        with use_cache(cache), use_batch_faults(plan):
            for task in pending:
                self._finalize(
                    self._supervise_inline(task, journal, incidents),
                    journal, results,
                )
        return results

    def _supervise_inline(
        self,
        task: BatchTask,
        journal: RunJournal | None,
        incidents: list[dict[str, Any]],
    ) -> BatchResult:
        policy = self.retry
        attempt = 0
        while True:
            attempt += 1
            if attempt > 1:
                time.sleep(policy.backoff_before(attempt))
            try:
                result = execute_task(task, attempt, inline=True,
                                      profile=self.profile)
            except InjectedWorkerCrash:
                if attempt >= policy.max_attempts:
                    self._incident(incidents, journal, incident="quarantine",
                                   task=task.id, attempt=attempt, reason="crash")
                    return self._quarantine_result(task, attempt, "crash")
                self._incident(incidents, journal, incident="retry",
                               task=task.id, attempt=attempt, reason="crash")
                continue
            if result.ok or attempt >= policy.max_attempts:
                return result
            self._incident(incidents, journal, incident="retry",
                           task=task.id, attempt=attempt, reason="task-error",
                           error=result.error)

    # -- pooled ---------------------------------------------------------
    def _run_pool(
        self,
        pending: list[BatchTask],
        plan: BatchFaultPlan | None,
        journal: RunJournal | None,
        incidents: list[dict[str, Any]],
    ) -> dict[str, BatchResult]:
        policy = self.retry
        results: dict[str, BatchResult] = {}
        attempts_used: dict[str, int] = {task.id: 0 for task in pending}
        shared: list[BatchTask] = list(pending)
        isolated: list[BatchTask] = []
        wave_no = 0
        stalled = 0
        with tempfile.TemporaryDirectory(prefix="repro-batch-") as markers:
            marker_root = Path(markers)
            while shared or isolated:
                if isolated:
                    batch, workers = [isolated.pop(0)], 1
                else:
                    batch, shared = shared, []
                    workers = min(self.jobs, len(batch))
                wave_no += 1
                wave = [(task, attempts_used[task.id] + 1) for task in batch]
                for task, attempt in wave:
                    if attempt > 1:
                        time.sleep(policy.backoff_before(attempt))
                outcome = self._execute_wave(
                    wave, workers, marker_root / f"w{wave_no}", plan,
                    journal, incidents,
                )
                if not outcome.finished and not outcome.casualties:
                    stalled += 1
                    if stalled >= 3:
                        raise RuntimeError(
                            "batch pool keeps dying before executing any "
                            "task; giving up after 3 fruitless rebuilds"
                        )
                else:
                    stalled = 0
                for task, attempt, result in outcome.finished:
                    attempts_used[task.id] = attempt
                    result.attempts = attempt
                    if result.ok or attempt >= policy.max_attempts:
                        self._finalize(result, journal, results)
                    else:
                        self._incident(incidents, journal, incident="retry",
                                       task=task.id, attempt=attempt,
                                       reason="task-error", error=result.error)
                        shared.append(task)
                for task, attempt, reason in outcome.casualties:
                    attempts_used[task.id] = attempt
                    if attempt >= policy.max_attempts:
                        self._incident(incidents, journal, incident="quarantine",
                                       task=task.id, attempt=attempt, reason=reason)
                        self._finalize(
                            self._quarantine_result(task, attempt, reason),
                            journal, results,
                        )
                    else:
                        self._incident(incidents, journal, incident="retry",
                                       task=task.id, attempt=attempt, reason=reason)
                        # Crash suspects and hangers retry in isolation: a
                        # one-worker pool makes any repeat crash exactly
                        # attributable and keeps a repeat hang from
                        # stalling healthy neighbours.
                        isolated.append(task)
                shared.extend(outcome.innocent)
        return results

    def _execute_wave(
        self,
        wave: list[tuple[BatchTask, int]],
        workers: int,
        marker_dir: Path,
        plan: BatchFaultPlan | None,
        journal: RunJournal | None,
        incidents: list[dict[str, Any]],
    ) -> _WaveOutcome:
        marker_dir.mkdir(parents=True, exist_ok=True)
        outcome = _WaveOutcome()
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=self._context(),
            initializer=_worker_init,
            initargs=(self.cache_dir, self.cache_max_bytes, plan),
        )
        futures = [
            pool.submit(_supervised_entry, task, attempt,
                        str(marker_dir / f"{index}.started"), self.profile)
            for index, (task, attempt) in enumerate(wave)
        ]
        harvested: set[int] = set()
        broken = False
        timed_out = False
        try:
            for index, (task, attempt) in enumerate(wave):
                try:
                    result = futures[index].result(timeout=self.retry.task_timeout)
                except concurrent.futures.TimeoutError:
                    # A running task cannot be cancelled; outlive it.
                    outcome.casualties.append((task, attempt, "timeout"))
                    harvested.add(index)
                    timed_out = True
                    break
                except BrokenProcessPool:
                    broken = True
                    break
                except Exception as exc:
                    # execute_task never raises Exception; reaching here
                    # means the *transport* failed (e.g. an unpicklable
                    # result).  Degrade it to a failed result.
                    outcome.finished.append((task, attempt, BatchResult(
                        task_id=task.id, kind=task.kind, ok=False,
                        error=f"{type(exc).__name__}: {exc}",
                        error_context={"reason": "transport"},
                        attempts=attempt,
                    )))
                    harvested.add(index)
                else:
                    outcome.finished.append((task, attempt, result))
                    harvested.add(index)
        finally:
            if broken or timed_out:
                self._terminate_pool(pool)
            else:
                pool.shutdown(wait=True)
        if not (broken or timed_out):
            return outcome
        self._incident(
            incidents, journal, incident="pool-rebuild",
            reason="crash" if broken else "timeout", wave=marker_dir.name,
        )
        # Post-mortem: pick through the wreckage in submission order.
        for index, (task, attempt) in enumerate(wave):
            if index in harvested:
                continue
            future = futures[index]
            if future.done():
                try:
                    outcome.finished.append((task, attempt, future.result(timeout=0)))
                    continue
                except BaseException:
                    pass  # cancelled or poisoned future: classify below
            started = (marker_dir / f"{index}.started").exists()
            if broken and started:
                # Started but never finished in a broken pool: a crash
                # suspect (the dead worker's task, or a co-victim).
                outcome.casualties.append((task, attempt, "crash"))
            else:
                # Never started (still queued), or torn down by our own
                # timeout teardown: innocent, requeue without charge.
                outcome.innocent.append(task)
        return outcome

    @staticmethod
    def _terminate_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down *now*: hung or orphaned workers included."""
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.kill()
            except Exception:
                pass
        pool.shutdown(wait=True, cancel_futures=True)


def run_batch(
    tasks: Iterable[BatchTask],
    *,
    jobs: int = 1,
    cache_dir: str | os.PathLike | None = None,
    deadline_seconds: float | None = None,
    retry: RetryPolicy | None = None,
    journal: str | os.PathLike | None = None,
    cache_max_bytes: int | None = None,
    faults: BatchFaultPlan | None = None,
    profile: ProfileConfig | None = None,
) -> BatchReport:
    """One-call convenience over :class:`BatchEngine`."""
    engine = BatchEngine(
        jobs=jobs, cache_dir=cache_dir, deadline_seconds=deadline_seconds,
        retry=retry, journal=journal, cache_max_bytes=cache_max_bytes,
        faults=faults, profile=profile,
    )
    return engine.run(tasks)
