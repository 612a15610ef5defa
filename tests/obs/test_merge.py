"""Merging per-task observability snapshots, and the ambient reset."""

from __future__ import annotations

import pytest

from repro.obs import (
    EventStream,
    MetricsRegistry,
    Tracer,
    get_events,
    get_metrics,
    get_tracer,
    merge_events,
    merge_metrics,
    merge_profiles,
    merge_traces,
    ObsContext,
    reset_ambient,
    use_obs,
)


def _metrics_snapshot(counter=0, gauge=None):
    registry = MetricsRegistry()
    if counter:
        registry.counter("requests").inc(counter)
    if gauge is not None:
        registry.gauge("residual").set(gauge)
    return registry.as_dict()


def test_merge_metrics_sums_counters():
    merged = merge_metrics([_metrics_snapshot(counter=2), _metrics_snapshot(counter=3)])
    assert merged["schema"] == "repro-metrics/1"
    assert merged["metrics"]["requests"]["value"] == 5


def test_merge_metrics_gauge_takes_last_non_none():
    merged = merge_metrics([_metrics_snapshot(gauge=1.5), _metrics_snapshot(counter=1)])
    assert merged["metrics"]["residual"]["value"] == 1.5


def test_merge_metrics_rejects_foreign_schema():
    with pytest.raises(ValueError):
        merge_metrics([{"schema": "something-else", "metrics": {}}])


def test_merge_traces_concatenates_in_order():
    documents = []
    for name in ("first", "second"):
        tracer = Tracer()
        with tracer.span(name):
            pass
        documents.append(tracer.to_dict())
    merged = merge_traces(documents)
    assert merged["schema"] == "repro-trace/1"
    assert [root["name"] for root in merged["traces"]] == ["first", "second"]


def test_merge_events_tags_each_event_with_its_task():
    def events_of(name):
        stream = EventStream()
        stream.emit(name, value=1)
        return stream.to_dicts()

    merged = merge_events([("a", events_of("x")), ("b", events_of("y"))])
    assert [(e["task"], e["event"]) for e in merged] == [("a", "x"), ("b", "y")]


def test_reset_ambient_restores_null_collectors():
    from repro.obs import NULL_EVENTS, NULL_METRICS, NULL_TRACER

    with use_obs(ObsContext(Tracer(), MetricsRegistry(), EventStream())):
        assert get_tracer() is not NULL_TRACER
        reset_ambient()
        assert get_tracer() is NULL_TRACER
        assert get_metrics() is NULL_METRICS
        assert get_events() is NULL_EVENTS


def test_reset_ambient_is_idempotent():
    from repro.obs import NULL_TRACER

    reset_ambient()
    reset_ambient()
    assert get_tracer() is NULL_TRACER


# ---------------------------------------------------------------------------
# Empty snapshots: the crashed-before-span case the batch retry path
# produces (a quarantined task contributes default-constructed
# trace/metrics/events documents).
# ---------------------------------------------------------------------------
def test_merge_traces_tolerates_empty_snapshots():
    tracer = Tracer()
    with tracer.span("work"):
        pass
    empty = Tracer().to_dict()
    merged = merge_traces([empty, tracer.to_dict(), empty])
    assert merged["schema"] == "repro-trace/1"
    assert [root["name"] for root in merged["traces"]] == ["work"]


def test_merge_traces_all_empty_yields_empty_forest():
    merged = merge_traces([Tracer().to_dict(), Tracer().to_dict()])
    assert merged == {"schema": "repro-trace/1", "traces": []}


def test_merge_metrics_tolerates_empty_snapshots():
    merged = merge_metrics([
        MetricsRegistry().as_dict(),
        _metrics_snapshot(counter=4),
        MetricsRegistry().as_dict(),
    ])
    assert merged["metrics"]["requests"]["value"] == 4


def test_merge_metrics_all_empty_yields_empty_registry():
    merged = merge_metrics([MetricsRegistry().as_dict()])
    assert merged == {"schema": "repro-metrics/1", "metrics": {}}


def test_merge_events_tolerates_empty_streams():
    stream = EventStream()
    stream.emit("alive", value=1)
    merged = merge_events([
        ("crashed", EventStream().to_dicts()),
        ("healthy", stream.to_dicts()),
    ])
    assert [(e["task"], e["event"]) for e in merged] == [("healthy", "alive")]


def test_merge_quarantined_batch_result_snapshots():
    """End-to-end shape check: the exact default documents a quarantined
    BatchResult carries merge cleanly alongside a healthy task's."""
    from repro.batch.engine import BatchResult

    quarantined = BatchResult(task_id="q", kind="pepa", ok=False,
                              error="WorkerCrash: ...", quarantined=True)
    tracer = Tracer()
    with tracer.span("derive"):
        pass
    healthy = BatchResult(task_id="h", kind="pepa", ok=True,
                          trace=tracer.to_dict())
    merged = merge_traces([quarantined.trace, healthy.trace])
    assert len(merged["traces"]) == 1
    assert merge_metrics([quarantined.metrics, healthy.metrics])["metrics"] == {}
    assert merge_events([("q", quarantined.events), ("h", healthy.events)]) == []


def _profile_doc(samples, interval=0.005, timeline=()):
    return {
        "schema": "repro-profile/1",
        "interval_s": interval,
        "sample_count": sum(samples.values()),
        "samples": dict(samples),
        "timeline": [list(entry) for entry in timeline],
        "timeline_dropped": 0,
    }


class TestMergeProfiles:
    def test_sample_counts_sum_exactly(self):
        merged = merge_profiles([
            _profile_doc({"a;b": 3, "a;c": 1}),
            _profile_doc({"a;b": 2, "d": 5}),
        ])
        assert merged["samples"] == {"a;b": 5, "a;c": 1, "d": 5}
        assert merged["sample_count"] == 11
        assert merged["schema"] == "repro-profile/1"

    def test_samples_are_sorted_for_determinism(self):
        merged = merge_profiles([_profile_doc({"z": 1, "a": 1, "m": 1})])
        assert list(merged["samples"]) == ["a", "m", "z"]

    def test_timelines_are_dropped_and_accounted(self):
        # worker clocks start at their own task; timelines don't align
        merged = merge_profiles([
            _profile_doc({"a": 2}, timeline=[(0.0, "a"), (0.005, "a")]),
            _profile_doc({"b": 1}, timeline=[(0.0, "b")]),
        ])
        assert merged["timeline"] == []
        assert merged["timeline_dropped"] == 3

    def test_interval_from_first_enabled_document(self):
        merged = merge_profiles([
            _profile_doc({}, interval=0.0),   # a task that never sampled
            _profile_doc({"a": 1}, interval=0.002),
        ])
        assert merged["interval_s"] == 0.002

    def test_empty_input_merges_to_empty_profile(self):
        merged = merge_profiles([])
        assert merged["sample_count"] == 0
        assert merged["samples"] == {}

    def test_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="repro-profile/1"):
            merge_profiles([{"schema": "repro-trace/1"}])
