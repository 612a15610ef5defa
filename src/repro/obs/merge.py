"""Merging per-worker observability snapshots into one coherent view.

The batch engine (:mod:`repro.batch.engine`) runs each task in its own
process under a fresh tracer, metrics registry and event stream; what
comes back over the pipe are their JSON-ready snapshots.  These
functions fold any number of such snapshots into the single sections
a run document carries — a ``repro-trace/1`` forest, a
``repro-metrics/1`` snapshot, flat task-tagged event records, a
``repro-profile/1`` profile — so a parallel run is recorded, and read
back through ``choreographer runs``, exactly like a serial one.

Merging is deterministic: snapshots are folded in the order given
(task-submission order, not completion order), counters and histograms
are commutative sums, and gauges resolve to the last non-``None`` value
in fold order.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

__all__ = ["merge_metrics", "merge_traces", "merge_events", "merge_profiles"]


def _merge_instrument(into: dict[str, Any], snap: dict[str, Any], name: str) -> None:
    kind = snap.get("type")
    have = into.get(name)
    if have is None:
        into[name] = dict(snap)
        return
    if have.get("type") != kind:
        raise ValueError(
            f"metric {name!r} is a {have.get('type')} in one snapshot and a "
            f"{kind} in another; refusing to merge"
        )
    if kind == "counter":
        have["value"] = have["value"] + snap["value"]
    elif kind == "gauge":
        if snap.get("value") is not None:
            have["value"] = snap["value"]
    elif kind == "histogram":
        have["count"] = have["count"] + snap["count"]
        have["sum"] = have["sum"] + snap["sum"]
        for bound, pick in (("min", min), ("max", max)):
            values = [v for v in (have.get(bound), snap.get(bound)) if v is not None]
            have[bound] = pick(values) if values else None
        have["mean"] = have["sum"] / have["count"] if have["count"] else None
    else:
        raise ValueError(f"metric {name!r} has unknown type {kind!r}")


def merge_metrics(snapshots: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Fold ``repro-metrics/1`` snapshots into one combined snapshot.

    Counters sum, histograms combine count/sum/min/max (mean is
    recomputed), gauges keep the last non-``None`` value in fold order.
    """
    merged: dict[str, Any] = {}
    for snapshot in snapshots:
        schema = snapshot.get("schema")
        if schema != "repro-metrics/1":
            raise ValueError(f"not a repro-metrics/1 snapshot: schema={schema!r}")
        for name, instrument in snapshot.get("metrics", {}).items():
            _merge_instrument(merged, instrument, name)
    return {
        "schema": "repro-metrics/1",
        "metrics": {name: merged[name] for name in sorted(merged)},
    }


def merge_traces(documents: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Concatenate ``repro-trace/1`` documents into one span forest.

    Each worker's roots (one per diagram/task) are appended in fold
    order, so the merged document reads like one long serial run and
    its span aggregates cover every worker.
    """
    traces: list[dict[str, Any]] = []
    for document in documents:
        schema = document.get("schema")
        if schema != "repro-trace/1":
            raise ValueError(f"not a repro-trace/1 document: schema={schema!r}")
        traces.extend(document.get("traces", []))
    return {"schema": "repro-trace/1", "traces": traces}


def merge_profiles(documents: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Fold ``repro-profile/1`` documents into one combined profile.

    Per-stack sample counts are commutative sums, so the merged
    ``samples``/``collapsed`` view is exact.  Per-sample *timelines* are
    not mergeable — each worker's clock starts at its own task — so the
    merged document carries an empty timeline and accounts every
    dropped entry in ``timeline_dropped``.  The sampling interval is
    taken from the first enabled document (workers share one
    :class:`~repro.obs.profile.ProfileConfig`, so they agree).
    """
    samples: dict[str, int] = {}
    sample_count = 0
    timeline_dropped = 0
    interval = 0.0
    for document in documents:
        schema = document.get("schema")
        if schema != "repro-profile/1":
            raise ValueError(f"not a repro-profile/1 document: schema={schema!r}")
        if not interval and document.get("interval_s"):
            interval = float(document["interval_s"])
        for stack, count in document.get("samples", {}).items():
            samples[stack] = samples.get(stack, 0) + int(count)
        sample_count += int(document.get("sample_count", 0))
        timeline_dropped += (len(document.get("timeline", []))
                             + int(document.get("timeline_dropped", 0)))
    return {
        "schema": "repro-profile/1",
        "interval_s": interval,
        "sample_count": sample_count,
        "samples": {stack: samples[stack] for stack in sorted(samples)},
        "timeline": [],
        "timeline_dropped": timeline_dropped,
    }


def merge_events(
    streams: Sequence[tuple[str, Sequence[dict[str, Any]]]],
) -> list[dict[str, Any]]:
    """Concatenate per-task event lists, tagging each with its task id.

    ``streams`` is ``[(task_id, events), ...]`` in task order; within a
    task the worker's own emission order is preserved, so the merged
    list is deterministic under any worker scheduling.
    """
    merged: list[dict[str, Any]] = []
    for task_id, events in streams:
        for event in events:
            tagged = dict(event)
            tagged.setdefault("task", task_id)
            merged.append(tagged)
    return merged
