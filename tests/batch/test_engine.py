"""The batch engine: execution paths, failure capture, merged views."""

from __future__ import annotations

import pytest

from repro.batch import BatchEngine, BatchTask, run_batch

SRC = """
r = 2.0;
P = (work, r).Q;
Q = (rest, 1.0).P;
P
"""

BROKEN_SRC = "this is not PEPA at all ;;;"

#: Parses, misses the cache, then fails: a passive activity at top level.
PASSIVE_SRC = "P = (a, infty).P; P"


def _tasks():
    return [
        BatchTask(id="model", kind="pepa", payload={"source": SRC}),
        BatchTask(id="e1", kind="experiment", payload={"experiment": "E1"}),
    ]


def test_inline_run_produces_measures_and_observability(tmp_path):
    report = run_batch(_tasks(), jobs=1, cache_dir=tmp_path / "cache")
    assert report.ok
    assert [r.task_id for r in report.results] == ["model", "e1"]
    model_result = report.results[0]
    assert model_result.measures["n_states"] == 2
    assert "work" in model_result.measures["throughputs"]
    # Each task carries its own trace/metrics/events snapshots.
    assert model_result.trace["schema"] == "repro-trace/1"
    assert model_result.trace["traces"]
    assert model_result.metrics["metrics"]
    # Cache traffic was recorded per task and totalled.
    totals = report.cache_totals()
    assert totals["misses"] > 0 and totals["stores"] > 0


def test_failed_task_degrades_itself_only():
    report = run_batch([
        BatchTask(id="bad", kind="pepa", payload={"source": BROKEN_SRC}),
        BatchTask(id="good", kind="pepa", payload={"source": SRC}),
    ])
    assert not report.ok
    assert [r.task_id for r in report.failures] == ["bad"]
    assert report.results[0].error is not None
    assert report.results[1].ok
    # The status line names the casualty, not just a count — CI logs
    # truncated to the summary still say what to replay.
    assert "1 task(s) FAILED (bad)" in report.summary()


def test_unknown_kind_is_a_captured_failure():
    report = run_batch([BatchTask(id="x", kind="nonsense")])
    assert not report.ok
    assert "ValueError" in report.results[0].error


def test_duplicate_task_ids_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        run_batch([
            BatchTask(id="same", kind="pepa", payload={"source": SRC}),
            BatchTask(id="same", kind="pepa", payload={"source": SRC}),
        ])


def test_jobs_must_be_positive():
    with pytest.raises(ValueError, match="jobs"):
        BatchEngine(jobs=0)


def test_default_budget_applies_to_budgetless_tasks():
    report = run_batch(
        [BatchTask(id="model", kind="pepa", payload={"source": SRC})],
        deadline_seconds=0.0,
    )
    assert not report.ok
    assert "Budget" in report.results[0].error


def test_task_budget_overrides_default():
    report = run_batch(
        [BatchTask(id="model", kind="pepa", payload={"source": SRC},
                   deadline_seconds=300.0)],
        deadline_seconds=0.0,
    )
    assert report.ok


def test_merged_events_are_task_tagged(tmp_path):
    report = run_batch(_tasks(), jobs=1, cache_dir=tmp_path / "cache")
    events = report.merged_events()
    assert events, "cache traffic must produce events"
    assert {event["task"] for event in events} <= {"model", "e1"}
    # Task order, not interleaved: all of model's events precede e1's.
    task_sequence = [event["task"] for event in events]
    assert task_sequence == sorted(task_sequence, key=["model", "e1"].index)


def test_event_evictions_reach_the_run_document():
    from repro.obs import DEFAULT_CAPACITY, build_run_document

    report = run_batch([BatchTask(id="noisy", kind="call", payload={
        "target": "tests.batch.chaos_helpers:emit_events",
        "kwargs": {"count": DEFAULT_CAPACITY + 500},
    })])
    (result,) = report.results
    assert result.ok
    assert len(result.events) == DEFAULT_CAPACITY
    assert result.events_dropped == report.events_dropped == 500
    document = build_run_document(
        command="batch", events=report.merged_events(),
        events_dropped=report.events_dropped)
    assert document["events"]["count"] == DEFAULT_CAPACITY
    assert document["events"]["dropped"] == 500


def test_merged_trace_concatenates_in_task_order():
    report = run_batch(_tasks())
    merged = report.merged_trace()
    assert merged["schema"] == "repro-trace/1"
    assert len(merged["traces"]) >= 2


def test_measures_json_is_canonical():
    report = run_batch(_tasks())
    text = report.measures_json()
    assert text.endswith("\n")
    again = run_batch(_tasks()).measures_json()
    assert text == again


def test_no_cache_dir_means_no_cache_traffic():
    report = run_batch(_tasks())
    assert report.cache_totals() == {}
    assert report.summary().endswith("cache: off")


def test_a_task_failing_after_a_miss_is_tallied(tmp_path):
    """The tally is the task's own metrics: a first task on an empty
    cache that misses and then fails still counts its miss."""
    report = run_batch(
        [BatchTask(id="passive", kind="pepa", payload={"source": PASSIVE_SRC})],
        cache_dir=tmp_path / "cache",
    )
    assert not report.ok
    assert report.results[0].metrics["metrics"]["cache.misses"]["value"] == 1
    assert report.cache_totals() == {
        "hits": 0, "misses": 1, "stores": 0, "corrupt": 0,
        "evictions": 0, "store_errors": 0,
    }
    assert "cache: 0 hits, 1 misses, 0 corrupt" in report.summary()


def test_cache_totals_do_not_depend_on_jobs(tmp_path):
    serial = run_batch(_tasks(), jobs=1, cache_dir=tmp_path / "serial")
    pooled = run_batch(_tasks(), jobs=2, cache_dir=tmp_path / "pooled")
    assert serial.cache_totals()["misses"] > 0
    assert pooled.cache_totals() == serial.cache_totals()


def test_pool_run_with_two_workers(tmp_path):
    report = run_batch(_tasks(), jobs=2, cache_dir=tmp_path / "cache")
    assert report.ok
    assert report.jobs == 2
    assert [r.task_id for r in report.results] == ["model", "e1"]


class TestProfileWiring:
    def test_profiled_inline_run_attaches_per_task_profiles(self):
        from repro.obs import ProfileConfig

        report = run_batch(_tasks(), profile=ProfileConfig(interval=0.001))
        assert report.ok
        for result in report.results:
            assert result.profile.get("schema") == "repro-profile/1"
        merged = report.merged_profile()
        assert merged["schema"] == "repro-profile/1"
        assert merged["sample_count"] == sum(
            r.profile["sample_count"] for r in report.results)

    def test_unprofiled_run_has_empty_profiles(self):
        report = run_batch(_tasks())
        assert all(result.profile == {} for result in report.results)
        assert report.merged_profile()["sample_count"] == 0

    def test_profiled_pool_run(self, tmp_path):
        from repro.obs import ProfileConfig

        report = run_batch(_tasks(), jobs=2, cache_dir=tmp_path / "cache",
                           profile=ProfileConfig(interval=0.001))
        assert report.ok
        for result in report.results:
            assert result.profile.get("schema") == "repro-profile/1"
