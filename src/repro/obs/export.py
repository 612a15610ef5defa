"""Exporters: trace/metric state to terminal text and standard formats.

The machine-readable form of a run is its ``repro-run/1`` document
(:mod:`repro.obs.ledger`), built from :meth:`Tracer.to_dict` /
:meth:`MetricsRegistry.as_dict` snapshots.  This module serves two
other audiences:

* humans — :func:`render_trace` draws the span forest as an indented
  tree with durations and attributes, :func:`render_metrics` a metrics
  snapshot as an aligned table, both plain ASCII-art suitable for a
  terminal or a CI log;
* standard tooling — :func:`chrome_trace_document` renders a run as
  Chrome Trace Event Format (load it in Perfetto / ``chrome://tracing``:
  spans as duration events, solver/exploration/batch events as
  instants, profiler samples as a sampled track), and
  :func:`prometheus_text` renders the metrics registry in Prometheus
  text exposition format for scraping or ``promtool`` inspection.
"""

from __future__ import annotations

import json
import re
from typing import Any

from repro.obs.tracing import NullTracer, Span, Tracer
from repro.utils.formatting import format_table

__all__ = [
    "render_trace",
    "render_metrics",
    "chrome_trace_document",
    "write_chrome_trace",
    "prometheus_text",
]


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _render_span(span: Span, prefix: str, is_last: bool, lines: list[str]) -> None:
    connector = "`- " if is_last else "|- "
    attrs = ", ".join(
        f"{k}={_format_value(v)}" for k, v in sorted(span.attributes.items())
    )
    suffix = f"  [{attrs}]" if attrs else ""
    lines.append(f"{prefix}{connector}{span.name}  {span.duration * 1e3:.3f} ms{suffix}")
    child_prefix = prefix + ("   " if is_last else "|  ")
    for i, child in enumerate(span.children):
        _render_span(child, child_prefix, i == len(span.children) - 1, lines)


def render_trace(tracer: Tracer | NullTracer) -> str:
    """The span forest as a human-readable tree with millisecond timings."""
    roots = tracer.roots
    if not roots:
        return "(no spans recorded)"
    lines: list[str] = []
    for root in roots:
        attrs = ", ".join(
            f"{k}={_format_value(v)}" for k, v in sorted(root.attributes.items())
        )
        suffix = f"  [{attrs}]" if attrs else ""
        lines.append(f"{root.name}  {root.duration * 1e3:.3f} ms{suffix}")
        for i, child in enumerate(root.children):
            _render_span(child, "", i == len(root.children) - 1, lines)
    return "\n".join(lines)


def render_metrics(snapshot: dict[str, dict[str, Any]]) -> str:
    """A metrics snapshot as an aligned name/type/value table.

    ``snapshot`` is the ``{name: instrument}`` mapping a run document
    stores as ``metrics`` (``MetricsRegistry.as_dict()["metrics"]``).
    """
    if not snapshot:
        return "(no metrics recorded)"
    rows = []
    for name, data in snapshot.items():
        rows.append([name, data.get("type", "?"), _format_value(data.get("value"))])
    return format_table(["metric", "type", "value"], rows)


# ---------------------------------------------------------------------------
# Chrome Trace Event Format (Perfetto / chrome://tracing / speedscope)
# ---------------------------------------------------------------------------
def _roots_of_trace(trace) -> list[dict[str, Any]]:
    if isinstance(trace, (Tracer, NullTracer)):
        return [root.to_dict() for root in trace.roots]
    if isinstance(trace, dict) and "traces" in trace:
        return list(trace["traces"])
    raise TypeError(f"cannot interpret {type(trace).__name__} as a trace")


def _span_chrome_events(span: dict[str, Any], fallback_start: float,
                        out: list[dict[str, Any]]) -> None:
    """One ``ph: "X"`` complete event per span, depth-first.

    ``start_unix`` anchors the event on the wall clock; pre-epoch trace
    documents (before the field existed) fall back to a synthesized
    timeline where siblings are laid out back to back from their
    parent's start — proportions survive, absolute time does not.
    """
    start = float(span.get("start_unix", fallback_start))
    duration = float(span.get("duration_s", 0.0))
    out.append({
        "name": span.get("name", "?"),
        "cat": "span",
        "ph": "X",
        "ts": round(start * 1e6, 3),
        "dur": round(duration * 1e6, 3),
        "pid": int(span.get("pid", 0)),
        "tid": int(span.get("tid", 0)),
        "args": dict(span.get("attributes", {})),
    })
    child_cursor = start
    for child in span.get("children", []):
        _span_chrome_events(child, child_cursor, out)
        child_cursor += float(child.get("duration_s", 0.0))


def chrome_trace_document(trace, events=None, profile=None) -> dict[str, Any]:
    """A run as a Chrome Trace Event Format JSON object.

    ``trace`` is a live tracer or a ``repro-trace/1`` document (merged
    batch traces included — per-span ``pid``/``tid`` keep worker
    attribution).  Spans render as duration events (``ph: "X"``); the
    optional ``events`` (flat event records, e.g. a run document's
    ``events.records``: ``solver.convergence`` / ``explore.progress`` /
    ``batch.*``) render as thread-scoped instants (``ph: "i"``); the
    optional ``profile`` (a
    :class:`~repro.obs.profile.SamplingProfiler` or its
    ``repro-profile/1`` dict) renders its timeline as a sampled track
    (``ph: "P"``).  Every emitted event carries the format's required
    ``name``/``ph``/``ts``/``pid``/``tid`` keys.
    """
    roots = _roots_of_trace(trace)
    trace_events: list[dict[str, Any]] = []
    cursor = 0.0
    for root in roots:
        _span_chrome_events(root, cursor, trace_events)
        cursor += float(root.get("duration_s", 0.0))
    base_epoch = min(
        (float(r["start_unix"]) for r in roots if "start_unix" in r),
        default=0.0,
    )
    base_pid = int(roots[0].get("pid", 0)) if roots else 0

    if events:
        trace_events.append({
            "name": "thread_name", "ph": "M", "ts": 0,
            "pid": base_pid, "tid": 1_000_001,
            "args": {"name": "events"},
        })
        for event in events:
            fields = {k: v for k, v in event.items()
                      if k not in ("event", "t_s")}
            trace_events.append({
                "name": str(event.get("event", "?")),
                "cat": "event",
                "ph": "i",
                "s": "t",
                "ts": round((base_epoch + float(event.get("t_s", 0.0))) * 1e6, 3),
                "pid": base_pid,
                "tid": 1_000_001,
                "args": fields,
            })

    if profile is not None:
        doc = profile if isinstance(profile, dict) else profile.to_dict()
        timeline = doc.get("timeline", [])
        if timeline:
            trace_events.append({
                "name": "thread_name", "ph": "M", "ts": 0,
                "pid": base_pid, "tid": 1_000_002,
                "args": {"name": "profiler samples"},
            })
        for t_s, stack in timeline:
            trace_events.append({
                "name": "sample",
                "cat": "profile",
                "ph": "P",
                "ts": round((base_epoch + float(t_s)) * 1e6, 3),
                "pid": base_pid,
                "tid": 1_000_002,
                "args": {"stack": stack},
            })

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs.export", "schema": "repro-trace/1"},
    }


def write_chrome_trace(path, trace, events=None, profile=None) -> int:
    """Serialise :func:`chrome_trace_document`; returns the event count."""
    document = chrome_trace_document(trace, events=events, profile=profile)
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2, default=str)
        fh.write("\n")
    return len(document["traceEvents"])


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------
def _prom_name(name: str) -> str:
    sanitised = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    return f"repro_{sanitised}"


def _prom_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def prometheus_text(metrics) -> str:
    """The metrics registry in Prometheus text exposition format.

    Accepts a live :class:`~repro.obs.metrics.MetricsRegistry` or a
    ``repro-metrics/1`` snapshot (e.g. a merged batch one).  Counters
    gain the conventional ``_total`` suffix.  Instrument names are
    sanitised (``cache.bytes`` → ``repro_cache_bytes``).
    """
    snapshot = metrics if isinstance(metrics, dict) else metrics.as_dict()
    lines: list[str] = []
    for name in sorted(snapshot.get("metrics", {})):
        data = snapshot["metrics"][name]
        kind = data.get("type")
        prom = _prom_name(name)
        if kind == "counter":
            lines.append(f"# HELP {prom}_total repro counter {name}")
            lines.append(f"# TYPE {prom}_total counter")
            lines.append(f"{prom}_total {_prom_value(data.get('value', 0))}")
        elif kind == "gauge":
            if data.get("value") is None:
                continue
            lines.append(f"# HELP {prom} repro gauge {name}")
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {_prom_value(data['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")
