"""Observability for the tool chain: span tracing + metrics + exporters.

The numerical representation dominates the cost of the whole pipeline
(Ding & Hillston, arXiv:1012.3040), so this package makes that cost
visible: hierarchical wall-clock spans over every stage (parse, derive,
assemble, solve, reflect), a metrics registry for the vital counts
(``states_explored``, ``transitions``, ``solver_iterations``,
``spmv_count``, ``residual``), and exporters to JSON and terminal
trees.

Everything is off by default and zero-cost when off: instrumented code
routes through :func:`get_tracer` / :func:`get_metrics` /
:func:`get_events`, which read the one installed :class:`ObsContext`
and return shared no-op singletons unless a caller installed live
collectors::

    from repro.obs import MetricsRegistry, ObsContext, Tracer, use_obs

    tracer, metrics = Tracer(), MetricsRegistry()
    with use_obs(ObsContext(tracer=tracer, metrics=metrics)):
        analysis = workbench.solve_source(source)
    print(render_trace(tracer))
    print(render_metrics(metrics))

:func:`observe` installs a fresh tracer + registry for the common case.
"""

from __future__ import annotations

from repro.obs.analysis import (
    aggregate_spans,
    critical_path,
    diff_traces,
    load_trace,
    render_aggregate,
    render_critical_path,
    render_trace_diff,
)
from repro.obs.context import (
    ObsContext,
    get_events,
    get_metrics,
    get_tracer,
    observe,
    reset_ambient,
    use_obs,
)
from repro.obs.events import (
    DEFAULT_CAPACITY,
    NULL_EVENTS,
    Event,
    EventStream,
    NullEventStream,
    read_events_jsonl,
    write_events_jsonl,
)
from repro.obs.export import (
    chrome_trace_document,
    metrics_to_json,
    prometheus_text,
    render_metrics,
    render_trace,
    trace_to_json,
    write_chrome_trace,
    write_prometheus_file,
    write_trace_file,
)
from repro.obs.ledger import RunLedger, build_run_document
from repro.obs.merge import merge_events, merge_metrics, merge_profiles, merge_traces
from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    nearest_rank,
)
from repro.obs.profile import (
    ProfileConfig,
    SamplingProfiler,
    SpanResourceProbe,
    collapsed_text,
)
from repro.obs.tracing import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "ObsContext",
    "use_obs",
    "get_tracer",
    "get_metrics",
    "get_events",
    "observe",
    "reset_ambient",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "Event",
    "EventStream",
    "NullEventStream",
    "NULL_EVENTS",
    "DEFAULT_CAPACITY",
    "write_events_jsonl",
    "read_events_jsonl",
    "merge_metrics",
    "merge_traces",
    "merge_events",
    "merge_profiles",
    "trace_to_json",
    "metrics_to_json",
    "render_trace",
    "render_metrics",
    "write_trace_file",
    "chrome_trace_document",
    "write_chrome_trace",
    "prometheus_text",
    "write_prometheus_file",
    "nearest_rank",
    "RunLedger",
    "build_run_document",
    "ProfileConfig",
    "SamplingProfiler",
    "SpanResourceProbe",
    "collapsed_text",
    "critical_path",
    "aggregate_spans",
    "diff_traces",
    "load_trace",
    "render_critical_path",
    "render_aggregate",
    "render_trace_diff",
]
