"""The ``repro-journal/1`` checkpoint file: round-trips, torn lines,
incident records, replay semantics."""

from __future__ import annotations

import json

import pytest

from repro.batch.engine import BatchResult, BatchTask
from repro.batch.journal import (
    JOURNAL_SCHEMA,
    RunJournal,
    result_from_dict,
    result_to_dict,
    task_from_dict,
    task_to_dict,
    tasks_fingerprint,
)
from repro.resilience.budget import BudgetSpec


def _tasks():
    return [
        BatchTask(id="a", kind="pepa", payload={"source": "P = (w, 1.0).P; P"}),
        BatchTask(id="b", kind="experiment", payload={"experiment": "E1"},
                  budget=BudgetSpec(deadline_seconds=5.0, max_states=100)),
    ]


def _result(task_id="a", **overrides):
    fields = dict(
        task_id=task_id, kind="pepa", ok=True,
        measures={"n_states": 2}, duration_s=0.25, attempts=2,
        events=[{"name": "x", "fields": {}}],
        metrics={"schema": "repro-metrics/1",
                 "metrics": {"cache.hits": {"type": "counter", "value": 1}}},
        error_context={"stage": "solve"},
    )
    fields.update(overrides)
    return BatchResult(**fields)


# ---------------------------------------------------------------------------
# Serialisation round-trips
# ---------------------------------------------------------------------------
def test_task_round_trip_with_budget():
    for task in _tasks():
        again = task_from_dict(json.loads(json.dumps(task_to_dict(task))))
        assert again == task  # frozen dataclasses compare by value


def test_result_round_trip():
    result = _result(ok=False, error="Boom: bad", quarantined=True)
    again = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
    assert again == result


def test_fingerprint_sensitive_to_order_and_budget():
    tasks = _tasks()
    assert tasks_fingerprint(tasks) == tasks_fingerprint(_tasks())
    assert tasks_fingerprint(tasks) != tasks_fingerprint(list(reversed(tasks)))
    rebudgeted = [tasks[0], BatchTask(id="b", kind="experiment",
                                      payload={"experiment": "E1"})]
    assert tasks_fingerprint(tasks) != tasks_fingerprint(rebudgeted)


# ---------------------------------------------------------------------------
# The journal file
# ---------------------------------------------------------------------------
def test_create_append_load_round_trip(tmp_path):
    path = tmp_path / "run.journal"
    journal = RunJournal.create(path, _tasks())
    journal.append_result(_result("a"))
    journal.append_incident({"incident": "retry", "task": "b", "attempt": 1,
                             "reason": "crash"})
    journal.append_result(_result("b", kind="experiment"))

    loaded = RunJournal.load(path)
    assert loaded.fingerprint == journal.fingerprint
    assert [t.id for t in loaded.tasks] == ["a", "b"]
    assert loaded.tasks[1].budget == BudgetSpec(deadline_seconds=5.0, max_states=100)
    assert set(loaded.results) == {"a", "b"}
    assert loaded.results["a"] == _result("a")
    assert loaded.incidents == [{"incident": "retry", "task": "b",
                                 "attempt": 1, "reason": "crash"}]


def test_torn_trailing_line_tolerated(tmp_path):
    """The line being written at the moment of death must not make the
    journal unreadable — that crash is the very thing we checkpoint for."""
    path = tmp_path / "run.journal"
    journal = RunJournal.create(path, _tasks())
    journal.append_result(_result("a"))
    with open(path, "a") as fh:
        fh.write('{"record": "result", "result": {"task_id": "b", "ki')  # torn

    loaded = RunJournal.load(path)
    assert set(loaded.results) == {"a"}
    assert [t.id for t in loaded.pending()] == ["b"]


def test_corrupt_interior_line_raises(tmp_path):
    path = tmp_path / "run.journal"
    journal = RunJournal.create(path, _tasks())
    with open(path, "a") as fh:
        fh.write("garbage not json\n")
    journal.append_result(_result("a"))
    with pytest.raises(ValueError, match="corrupt"):
        RunJournal.load(path)


def test_missing_or_foreign_header_rejected(tmp_path):
    empty = tmp_path / "empty.journal"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        RunJournal.load(empty)
    foreign = tmp_path / "foreign.journal"
    foreign.write_text(json.dumps({"schema": "something-else/1"}) + "\n")
    with pytest.raises(ValueError, match=JOURNAL_SCHEMA):
        RunJournal.load(foreign)


def test_last_record_wins_for_duplicate_task(tmp_path):
    path = tmp_path / "run.journal"
    journal = RunJournal.create(path, _tasks())
    journal.append_result(_result("a", measures={"n_states": 1}))
    journal.append_result(_result("a", measures={"n_states": 2}))
    loaded = RunJournal.load(path)
    assert loaded.results["a"].measures == {"n_states": 2}


def test_unknown_record_kinds_skipped_for_forward_compat(tmp_path):
    path = tmp_path / "run.journal"
    RunJournal.create(path, _tasks())
    with open(path, "a") as fh:
        fh.write(json.dumps({"record": "telemetry", "v": 1}) + "\n")
        fh.write(json.dumps({"record": "result",
                             "result": result_to_dict(_result("a"))}) + "\n")
    loaded = RunJournal.load(path)
    assert set(loaded.results) == {"a"}


def test_quarantined_results_not_replayable(tmp_path):
    path = tmp_path / "run.journal"
    journal = RunJournal.create(path, _tasks())
    journal.append_result(_result("a"))
    journal.append_result(_result("b", kind="experiment", ok=False,
                                  error="WorkerCrash: ...", quarantined=True))
    loaded = RunJournal.load(path)
    assert set(loaded.results) == {"a", "b"}
    assert set(loaded.replayable()) == {"a"}  # b gets a fresh chance
    assert [t.id for t in loaded.pending()] == ["b"]


def test_failed_but_not_quarantined_results_are_replayable(tmp_path):
    """A deterministic failure is a *result*; resume must not re-run it."""
    path = tmp_path / "run.journal"
    journal = RunJournal.create(path, _tasks())
    journal.append_result(_result("a", ok=False, error="ValueError: nope"))
    loaded = RunJournal.load(path)
    assert set(loaded.replayable()) == {"a"}
    assert [t.id for t in loaded.pending()] == ["b"]


def test_profile_round_trips_through_the_journal():
    profile = {"schema": "repro-profile/1", "interval_s": 0.001,
               "sample_count": 2, "samples": {"a;b": 2},
               "timeline": [[0.0, "a;b"]], "timeline_dropped": 0}
    restored = result_from_dict(result_to_dict(_result(profile=profile)))
    assert restored.profile == profile


def test_pre_profile_journal_lines_load_with_empty_profile():
    document = result_to_dict(_result())
    del document["profile"]  # a checkpoint written before the field existed
    assert result_from_dict(document).profile == {}


def test_events_dropped_round_trips_through_the_journal():
    restored = result_from_dict(result_to_dict(_result(events_dropped=500)))
    assert restored.events_dropped == 500


def test_pre_eviction_count_journal_lines_load_with_zero_dropped():
    document = result_to_dict(_result(events_dropped=3))
    del document["events_dropped"]  # written before the field existed
    assert result_from_dict(document).events_dropped == 0
