"""A lightweight metrics registry: counters, gauges, histograms.

The numerical pipeline's vital signs — ``states_explored``,
``transitions``, ``solver_iterations``, ``spmv_count``, ``residual`` —
are recorded here by the instrumented layers.  The design mirrors the
tracer: library code asks :func:`repro.obs.get_metrics` for the
registry of the installed context, which defaults to the no-op
:data:`NULL_METRICS`, so a pipeline run with metrics disabled pays one
method call returning a shared singleton per instrument lookup and
nothing per update.

Instruments are created on first use and aggregate in-process::

    metrics = MetricsRegistry()
    with use_obs(ObsContext(metrics=metrics)):
        run_pipeline(...)
    metrics.counter("states_explored").value
    metrics.as_dict()   # JSON-ready snapshot

Labels are deliberately out of scope (one process, one pipeline run at
a time); encode a dimension in the name (``solve.gmres.iterations``)
when needed.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

__all__ = [
    "nearest_rank",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
]


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile of an ascending sequence.

    The one percentile definition used across ``repro.obs`` —
    :meth:`Histogram.percentile` and
    :func:`repro.obs.analysis.aggregate_spans` both call this — so a
    p95 from the metrics registry and a p95 from a trace aggregate mean
    the same thing.  Nearest rank: the smallest value with at least
    ``q``% of the samples at or below it (rank ``ceil(q/100 · n)``,
    clamped to the first value), so the result is always an observed
    sample, never an interpolation.  ``n=1`` → the sample itself;
    ``q=100`` → the maximum.
    """
    if not sorted_values:
        raise ValueError("cannot take a percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile q must be in (0, 100], got {q}")
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


class Counter:
    """A monotonically increasing count (events, states, iterations)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be >= 0) to the count."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot: type tag plus current value."""
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value that may go up or down (residual, RSS)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float | None = None

    def set(self, value: float) -> None:
        """Record the latest observed value, replacing any previous one."""
        self.value = value

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot: type tag plus current value."""
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Summary statistics of an observed distribution.

    Keeps count/sum/min/max for the snapshot plus the raw samples for
    :meth:`percentile`/:meth:`summary` — nearest-rank percentiles with
    exactly the semantics of :func:`repro.obs.analysis.aggregate_spans`
    (both go through :func:`nearest_rank`).  Retention is bounded:
    beyond ``sample_limit`` new samples stop being kept (count/sum/
    min/max stay exact; percentiles degrade to the retained prefix and
    :attr:`samples_dropped` says by how much), so a per-iteration
    histogram in a million-step solve cannot grow memory without bound.
    """

    __slots__ = ("name", "count", "total", "min", "max",
                 "_samples", "sample_limit", "samples_dropped")

    #: Samples retained for percentile queries; plenty for per-stage
    #: timings, bounded for per-iteration abuse.
    DEFAULT_SAMPLE_LIMIT = 8192

    def __init__(self, name: str, sample_limit: int = DEFAULT_SAMPLE_LIMIT):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._samples: list[float] = []
        self.sample_limit = sample_limit
        self.samples_dropped = 0

    def observe(self, value: float) -> None:
        """Fold one sample into the summary (and the percentile store)."""
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None or value < self.min else self.min
        self.max = value if self.max is None or value > self.max else self.max
        if len(self._samples) < self.sample_limit:
            self._samples.append(value)
        else:
            self.samples_dropped += 1

    @property
    def mean(self) -> float | None:
        """Arithmetic mean of the samples (``None`` before the first)."""
        return self.total / self.count if self.count else None

    def percentile(self, q: float) -> float | None:
        """Nearest-rank ``q``-th percentile (``None`` before the first
        sample); see :func:`nearest_rank` for the exact semantics."""
        if not self._samples:
            return None
        return nearest_rank(sorted(self._samples), q)

    def summary(self) -> dict[str, Any]:
        """count/sum/min/max/mean plus p50/p90/p95/p99 in one dict."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "samples_dropped": self.samples_dropped,
        }

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot of the summary statistics.

        Deliberately excludes percentiles: snapshots are merged across
        workers by :func:`repro.obs.merge.merge_metrics`, and
        percentiles do not merge (count/sum/min/max do).
        """
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Name → instrument, created on first use, one kind per name."""

    def __init__(self):
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: type) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(name)
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first use."""
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name``, created on first use."""
        return self._get(name, Histogram)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self) -> list[str]:
        """Every registered instrument name, sorted."""
        return sorted(self._instruments)

    def clear(self) -> None:
        """Drop every instrument (a fresh registry is usually better)."""
        self._instruments.clear()

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot of every instrument, sorted by name."""
        return {
            "schema": "repro-metrics/1",
            "metrics": {
                name: self._instruments[name].as_dict() for name in self.names()
            },
        }


class _NullInstrument:
    """Shared sink standing in for every instrument when metrics are off."""

    __slots__ = ()

    value = 0
    count = 0
    total = 0.0
    min = None
    max = None
    mean = None

    def inc(self, amount: int | float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float) -> None:
        return None

    def summary(self) -> dict[str, Any]:
        return {}

    def as_dict(self) -> dict[str, Any]:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """The disabled registry: every lookup returns the shared sink."""

    def counter(self, name: str) -> _NullInstrument:
        """The shared no-op instrument, whatever the name."""
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        """The shared no-op instrument, whatever the name."""
        return _NULL_INSTRUMENT

    def histogram(self, name: str) -> _NullInstrument:
        """The shared no-op instrument, whatever the name."""
        return _NULL_INSTRUMENT

    def __contains__(self, name: str) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def names(self) -> list[str]:
        """Always empty: nothing is ever registered."""
        return []

    def clear(self) -> None:
        """No-op: there is nothing to drop."""
        pass

    def as_dict(self) -> dict[str, Any]:
        """An empty but schema-valid snapshot."""
        return {"schema": "repro-metrics/1", "metrics": {}}


#: The process-wide default: metrics off.
NULL_METRICS = NullMetrics()
