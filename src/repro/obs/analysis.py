"""Trace analysis: critical paths and per-name aggregation.

A raw span forest answers "where did the time go" only after staring at
it; this module turns a trace — a live :class:`~repro.obs.tracing.Tracer`,
a single :class:`~repro.obs.tracing.Span`, or the ``repro-trace/1``
forest a run document embeds — into two directly actionable views:

* :func:`critical_path` — the chain of heaviest spans from the heaviest
  root down, with per-span self time, i.e. "the one stack that bounds
  the run";
* :func:`aggregate_spans` — per-span-name count / total / mean / p95 /
  max over the whole forest, the profile view every run document
  stores as its ``spans`` section (:mod:`repro.obs.regress` judges
  those totals across a ledger's run history).

Both accept any trace form and return plain data; the ``render_*``
companions format them for terminals, and ``choreographer runs
explain`` prints both for a recorded run.
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import nearest_rank
from repro.obs.tracing import NullTracer, Span, Tracer
from repro.utils.formatting import format_table

__all__ = [
    "critical_path",
    "aggregate_spans",
    "render_critical_path",
    "render_aggregate",
]


def _roots_of(trace) -> list[dict[str, Any]]:
    """Normalise any accepted trace form to a list of span dicts."""
    if isinstance(trace, (Tracer, NullTracer)):
        return [root.to_dict() for root in trace.roots]
    if isinstance(trace, Span):
        return [trace.to_dict()]
    if isinstance(trace, dict):
        if "traces" in trace:
            return list(trace["traces"])
        if "name" in trace:  # a bare span dict
            return [trace]
    raise TypeError(f"cannot interpret {type(trace).__name__} as a trace")


def _duration(span: dict[str, Any]) -> float:
    return float(span.get("duration_s", 0.0))


def critical_path(trace) -> list[dict[str, Any]]:
    """The heaviest root-to-leaf chain of the trace.

    Starting from the longest root, repeatedly descend into the longest
    child.  Each entry carries ``name``, ``duration_s``, ``self_s``
    (duration minus children — the time the span itself is responsible
    for) and ``share`` of the root's duration.  Empty trace → ``[]``.
    """
    roots = _roots_of(trace)
    if not roots:
        return []
    node = max(roots, key=_duration)
    total = _duration(node) or 1e-12
    path: list[dict[str, Any]] = []
    while node is not None:
        children = node.get("children", [])
        child_time = sum(_duration(c) for c in children)
        path.append({
            "name": node["name"],
            "duration_s": _duration(node),
            "self_s": max(0.0, _duration(node) - child_time),
            "share": _duration(node) / total,
            "attributes": dict(node.get("attributes", {})),
        })
        node = max(children, key=_duration) if children else None
    return path


def aggregate_spans(trace) -> dict[str, dict[str, Any]]:
    """Per-span-name summary over the whole forest.

    Returns ``{name: {count, total_s, mean_s, p95_s, max_s}}`` sorted by
    descending total time.  p95 is the nearest-rank percentile of the
    individual span durations.
    """
    samples: dict[str, list[float]] = {}
    stack = list(_roots_of(trace))
    while stack:
        span = stack.pop()
        samples.setdefault(span["name"], []).append(_duration(span))
        stack.extend(span.get("children", []))
    out: dict[str, dict[str, Any]] = {}
    for name, durations in samples.items():
        durations.sort()
        out[name] = {
            "count": len(durations),
            "total_s": sum(durations),
            "mean_s": sum(durations) / len(durations),
            "p95_s": nearest_rank(durations, 95),
            "max_s": durations[-1],
        }
    return dict(sorted(out.items(), key=lambda kv: -kv[1]["total_s"]))


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}"


def render_critical_path(path: list[dict[str, Any]]) -> str:
    """The critical path as an indented chain with ms and % columns."""
    if not path:
        return "(empty trace)"
    lines = ["critical path (heaviest chain):"]
    for depth, entry in enumerate(path):
        lines.append(
            f"  {'  ' * depth}{entry['name']}  {_ms(entry['duration_s'])} ms "
            f"(self {_ms(entry['self_s'])} ms, {entry['share'] * 100:.1f}%)"
        )
    return "\n".join(lines)


def render_aggregate(aggregate: dict[str, dict[str, Any]]) -> str:
    """The per-name aggregation as an aligned table (times in ms).

    Rows run heaviest first, ties by name, whatever order the mapping
    arrives in: a stored run document keeps its ``spans`` keyed by name.
    """
    if not aggregate:
        return "(empty trace)"
    rows = [
        [name, s["count"], _ms(s["total_s"]), _ms(s["mean_s"]),
         _ms(s["p95_s"]), _ms(s["max_s"])]
        for name, s in sorted(aggregate.items(),
                              key=lambda kv: (-kv[1]["total_s"], kv[0]))
    ]
    return format_table(
        ["span", "count", "total ms", "mean ms", "p95 ms", "max ms"], rows
    )
