"""Low-overhead wall-clock sampling profiler + per-span resource probe.

Spans say which *stage* the time went to; the profiler says where
*inside* a stage it went.  A :class:`SamplingProfiler` runs a daemon
thread that wakes every ``interval`` seconds, snapshots the target
thread's Python stack via ``sys._current_frames()``, prefixes it with
the current span stack (:meth:`repro.obs.tracing.Tracer.stack_names`),
and folds the sample into a counter keyed by the collapsed stack — the
format flamegraph.pl and speedscope load directly::

    profiler = SamplingProfiler(interval=0.005)
    with profiler:
        run_pipeline(...)
    Path("profile.folded").write_text(profiler.collapsed())

Sampling is statistical and cheap: the profiled thread is never
stopped, traced or patched, so enabled overhead stays inside the
documented <15% envelope (measured low single digits at the default
5 ms interval).  Profiling off means no profiler object at all: the
entrypoint that wants one (the CLI's ``--profile``, or
:func:`repro.batch.engine.execute_task` given a :class:`ProfileConfig`)
builds it and drives it with ``with profiler:``.

Deterministic per-span resource accounting is separate from sampling:
a :class:`SpanResourceProbe` handed to ``Tracer(probe=...)`` stamps
every closed span of that tracer with its ``cpu_s``
(``time.process_time`` delta) and, when built with ``memory=True`` (the
``--profile-memory`` flag), ``mem_peak_kib``/``mem_alloc_kib`` from
``tracemalloc`` — exact measurements, not samples, so they are stable
run to run.  Whoever builds a memory probe closes it, which stops the
``tracemalloc`` it started.

Batch runs pass their :class:`ProfileConfig` to every task, and each
task starts its own profiler and probe, so a worker never samples on
behalf of another task; the per-task sample sets merge through
:func:`repro.obs.merge.merge_profiles`.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass
from typing import Any

from repro.obs.context import get_tracer

__all__ = [
    "PROFILE_SCHEMA",
    "DEFAULT_INTERVAL",
    "ProfileConfig",
    "SamplingProfiler",
    "SpanResourceProbe",
    "collapsed_text",
]

PROFILE_SCHEMA = "repro-profile/1"

#: Default sampling period: 5 ms ≈ 200 Hz, enough resolution to split a
#: 100 ms stage while keeping the sampler thread mostly asleep.
DEFAULT_INTERVAL = 0.005

#: Bound on the per-sample timeline kept for the Chrome-trace sampled
#: track; the aggregated counters are unbounded (their cardinality is
#: the number of distinct stacks, not the number of samples).
TIMELINE_CAPACITY = 10_000


@dataclass(frozen=True)
class ProfileConfig:
    """How an entrypoint wants its run profiled.

    Passed to every batch task (it is picklable, so it travels with
    the task into a worker), so ``--profile`` on the CLI profiles every
    task independently.  ``memory=True`` additionally installs a
    ``tracemalloc``-backed :class:`SpanResourceProbe` (measurably
    slower; keep it opt-in behind ``--profile-memory``).
    """

    interval: float = DEFAULT_INTERVAL
    memory: bool = False

    def __post_init__(self):
        if self.interval <= 0:
            raise ValueError(f"profile interval must be > 0, got {self.interval}")


class SamplingProfiler:
    """Wall-clock stack sampler attributed to the current span stack.

    ``target_thread`` is the thread ident to sample (default: the
    creating thread); ``tracer`` the tracer whose span stack prefixes
    every sample (default: resolved via ``get_tracer()`` at sample
    time, so the profiler composes with scoped ``use_obs`` blocks).
    """

    def __init__(self, interval: float = DEFAULT_INTERVAL, *,
                 target_thread: int | None = None, tracer=None):
        if interval <= 0:
            raise ValueError(f"profile interval must be > 0, got {interval}")
        self.interval = interval
        self.samples: dict[tuple[str, ...], int] = {}
        self.sample_count = 0
        self.timeline: list[tuple[float, str]] = []
        self.timeline_dropped = 0
        self._target = target_thread if target_thread is not None else threading.get_ident()
        self._tracer = tracer
        self._epoch = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    def start(self) -> "SamplingProfiler":
        """Spawn the sampling daemon thread (idempotent); returns self."""
        if self._thread is None:
            self._epoch = time.perf_counter()
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-profiler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        """Stop sampling and join the daemon thread; returns self."""
        thread = self._thread
        if thread is not None:
            self._stop.set()
            thread.join()
            self._thread = None
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self._sample()
            except Exception:  # pragma: no cover — sampling must never kill a run
                pass

    def _sample(self) -> None:
        frame = sys._current_frames().get(self._target)
        if frame is None:
            return
        stack: list[str] = []
        while frame is not None:
            code = frame.f_code
            filename = code.co_filename.rsplit("/", 1)[-1]
            stack.append(f"{code.co_name} ({filename}:{code.co_firstlineno})")
            frame = frame.f_back
        stack.reverse()  # root first, collapsed-stack order
        tracer = self._tracer if self._tracer is not None else get_tracer()
        key = tuple(tracer.stack_names()) + tuple(stack)
        self.record(key)

    def record(self, stack: tuple[str, ...],
               count: int = 1, t: float | None = None) -> None:
        """Fold one (or ``count``) sample(s) of ``stack`` into the counters.

        Exposed so tests and replays can inject deterministic samples;
        the daemon thread is just a repeated caller.
        """
        self.samples[stack] = self.samples.get(stack, 0) + count
        self.sample_count += count
        when = time.perf_counter() - self._epoch if t is None else t
        if len(self.timeline) < TIMELINE_CAPACITY:
            self.timeline.append((when, ";".join(stack)))
        else:
            self.timeline_dropped += count

    # ------------------------------------------------------------------
    def collapsed(self) -> str:
        """The samples in collapsed-stack format (one ``a;b;c N`` line
        per distinct stack, sorted), loadable by flamegraph/speedscope."""
        lines = [
            f"{';'.join(stack)} {count}"
            for stack, count in sorted(self.samples.items())
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready rendering: schema, interval, aggregated samples,
        and the (bounded) per-sample timeline for the Chrome exporter."""
        return {
            "schema": PROFILE_SCHEMA,
            "interval_s": self.interval,
            "sample_count": self.sample_count,
            "samples": {
                ";".join(stack): count
                for stack, count in sorted(self.samples.items())
            },
            "timeline": [[round(t, 6), stack] for t, stack in self.timeline],
            "timeline_dropped": self.timeline_dropped,
        }


def collapsed_text(document: dict[str, Any]) -> str:
    """A ``repro-profile/1`` document's samples in collapsed-stack format.

    The document-side twin of :meth:`SamplingProfiler.collapsed`, for
    profiles that only exist as JSON (a ledger run document, a merged
    batch profile).
    """
    lines = [
        f"{stack} {count}"
        for stack, count in sorted(document.get("samples", {}).items())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Deterministic per-span resource accounting
# ---------------------------------------------------------------------------
class SpanResourceProbe:
    """Stamps every closed span with exact CPU (and memory) deltas.

    Handed to ``Tracer(probe=...)``; every
    :class:`~repro.obs.tracing.Span` of that tracer calls :meth:`begin`
    at open and :meth:`finish` at close.  CPU is the process-wide
    ``time.process_time`` delta over the span's window — nested spans
    include their children, exactly like wall duration.
    With ``memory=True`` the probe also records the net ``tracemalloc``
    allocation delta (``mem_alloc_kib``) and the traced peak over the
    span window (``mem_peak_kib``; each span open resets the peak, so a
    parent's figure covers the window since its last child opened).
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self._started_tracemalloc = False
        if memory:
            import tracemalloc

            self._tracemalloc = tracemalloc
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracemalloc = True

    def close(self) -> None:
        """Stop tracemalloc if this probe started it; its builder calls
        this in a ``finally`` once the run is over."""
        if self._started_tracemalloc:
            self._tracemalloc.stop()
            self._started_tracemalloc = False

    def begin(self) -> tuple[float, int]:
        """Called at span open: the CPU/memory baseline to diff against."""
        current = 0
        if self.memory:
            current, _peak = self._tracemalloc.get_traced_memory()
            self._tracemalloc.reset_peak()
        return (time.process_time(), current)

    def finish(self, span, token: tuple[float, int]) -> None:
        """Called at span close: stamp the deltas since :meth:`begin`."""
        cpu0, mem0 = token
        span.attributes["cpu_s"] = round(time.process_time() - cpu0, 9)
        if self.memory:
            current, peak = self._tracemalloc.get_traced_memory()
            span.attributes["mem_alloc_kib"] = round((current - mem0) / 1024, 3)
            span.attributes["mem_peak_kib"] = round(max(0, peak - mem0) / 1024, 3)
