"""Checkpoint/resume through the engine: kill, resume, compare.

The determinism contract extended across process death: a run that is
killed partway and resumed from its journal must produce measures JSON
byte-identical to a run that was never interrupted.
"""

from __future__ import annotations

import json

import pytest

from repro.batch import BatchEngine, BatchTask
from repro.batch.engine import CACHE_TALLIES, RetryPolicy
from repro.batch.journal import RunJournal
from repro.resilience.faultinject import BatchFaultPlan

FAST = RetryPolicy(retries=2, backoff=0.0)

SRC_TEMPLATE = """
r = {rate};
P = (work, r).Q;
Q = (rest, 1.0).P;
P
"""


def _tasks(n=4):
    return [
        BatchTask(id=f"m{i}", kind="pepa",
                  payload={"source": SRC_TEMPLATE.format(rate=float(i + 1))})
        for i in range(n)
    ]


def test_journalled_run_records_every_result(tmp_path):
    journal_path = tmp_path / "run.journal"
    engine = BatchEngine(jobs=1, journal=journal_path, retry=FAST)
    report = engine.run(_tasks())
    assert report.ok
    assert report.journal_path == str(journal_path)
    loaded = RunJournal.load(journal_path)
    assert set(loaded.results) == {"m0", "m1", "m2", "m3"}
    assert all(r.ok for r in loaded.results.values())


def test_resume_completed_run_replays_without_rerunning(tmp_path, monkeypatch):
    journal_path = tmp_path / "run.journal"
    engine = BatchEngine(jobs=1, journal=journal_path, retry=FAST)
    first = engine.run(_tasks())

    def boom(*args, **kwargs):  # any re-execution is a contract violation
        raise AssertionError("resume of a complete run must not execute tasks")

    monkeypatch.setattr("repro.batch.engine.execute_task", boom)
    resumed = BatchEngine(jobs=1, retry=FAST).resume(journal_path)
    assert resumed.measures_json() == first.measures_json()


def test_journal_lines_with_a_cache_key_resume_unchanged(tmp_path):
    """Journals from before the cache tally lived only in each result's
    metrics carry a ``cache`` dict per result; they still resume, with
    the same totals and byte-identical measures."""
    journal_path = tmp_path / "run.journal"
    cache_dir = tmp_path / "cache"
    first = BatchEngine(jobs=1, journal=journal_path, cache_dir=cache_dir,
                        retry=FAST).run(_tasks())
    assert first.cache_totals()["misses"] == 8  # a state space and a chain each

    lines = []
    for line in journal_path.read_text().splitlines():
        record = json.loads(line)
        if record.get("record") == "result":
            counters = record["result"]["metrics"]["metrics"]
            record["result"]["cache"] = {
                name: counters.get(f"cache.{name}", {}).get("value", 0)
                for name in CACHE_TALLIES
            }
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    assert sum('"cache": {' in line for line in lines) == len(_tasks())
    journal_path.write_text("".join(lines))

    resumed = BatchEngine(jobs=1, cache_dir=cache_dir, retry=FAST).resume(journal_path)
    assert resumed.cache_totals() == first.cache_totals()
    assert resumed.measures_json() == first.measures_json()


def test_resume_runs_only_the_missing_tail(tmp_path):
    tasks = _tasks()
    uninterrupted = BatchEngine(jobs=1, retry=FAST).run(tasks).measures_json()

    # Simulate a crash after two tasks: journal the first two results only.
    journal_path = tmp_path / "run.journal"
    journal = RunJournal.create(journal_path, tasks)
    partial = BatchEngine(jobs=1, retry=FAST).run(tasks[:2])
    for result in partial.results:
        journal.append_result(result)

    resumed = BatchEngine(jobs=1, retry=FAST).resume(journal_path)
    assert resumed.ok
    assert resumed.measures_json() == uninterrupted
    # Only the missing tail actually ran: replayed results keep their
    # recorded identity (same attempts, same durations).
    assert [r.task_id for r in resumed.results] == [t.id for t in tasks]


def test_kill_resume_compare_determinism(tmp_path):
    """The acceptance criterion end-to-end: a chaotic `--jobs 2` run with
    an injected worker kill and a hung task, quarantining the victims,
    then a clean resume — byte-identical to an uninterrupted serial run."""
    tasks = _tasks(5)
    clean = BatchEngine(jobs=1, retry=FAST).run(tasks).measures_json()

    journal_path = tmp_path / "run.journal"
    plan = BatchFaultPlan.parse(["kill:m1@1,2", "hang:m3@1,2:30"])
    chaotic = BatchEngine(
        jobs=2, journal=journal_path, faults=plan,
        retry=RetryPolicy(retries=1, backoff=0.0, task_timeout=1.0),
    ).run(tasks)
    assert not chaotic.ok
    assert {r.task_id for r in chaotic.quarantined} == {"m1", "m3"}
    assert chaotic.measures_json() != clean  # the wreckage is visible

    # Resume without faults: quarantined tasks get their fresh chance,
    # completed tasks replay, and the report converges on the clean run.
    resumed = BatchEngine(jobs=2, retry=FAST).resume(journal_path)
    assert resumed.ok
    assert resumed.measures_json() == clean


def test_resume_with_matching_tasks_accepts(tmp_path):
    tasks = _tasks()
    journal_path = tmp_path / "run.journal"
    BatchEngine(jobs=1, journal=journal_path, retry=FAST).run(tasks)
    resumed = BatchEngine(jobs=1, retry=FAST).resume(journal_path, tasks)
    assert resumed.ok


def test_resume_with_mismatched_tasks_rejected(tmp_path):
    journal_path = tmp_path / "run.journal"
    BatchEngine(jobs=1, journal=journal_path, retry=FAST).run(_tasks())
    other = _tasks()[:2]
    with pytest.raises(ValueError, match="fingerprint"):
        BatchEngine(jobs=1, retry=FAST).resume(journal_path, other)


def test_resumed_incidents_accumulate_across_runs(tmp_path):
    """The journal keeps the full failure history of the batch: incidents
    from the original run and the resume both survive in one file."""
    tasks = _tasks(3)
    journal_path = tmp_path / "run.journal"
    plan = BatchFaultPlan.parse(["kill:m1@1,2,3"])
    first = BatchEngine(jobs=1, journal=journal_path, faults=plan,
                        retry=FAST).run(tasks)
    assert first.results[1].quarantined
    n_first = len(first.incidents)
    assert n_first > 0

    plan2 = BatchFaultPlan.parse(["kill:m1@1"])  # crash once more, recover
    resumed = BatchEngine(jobs=1, faults=plan2, retry=FAST).resume(journal_path)
    assert resumed.ok
    assert len(resumed.incidents) == n_first + 1
    assert len(RunJournal.load(journal_path).incidents) == n_first + 1


def test_journal_tasks_with_a_budget_dict_resume(tmp_path):
    """Older journals carry each task's deadline inside a ``budget``
    dict with a state limit and a clock-read interval; they still load,
    keep the deadline, and resume to the same measures."""
    tasks = [BatchTask(id=t.id, kind=t.kind, payload=t.payload, deadline_seconds=300.0)
             for t in _tasks()]
    journal_path = tmp_path / "run.journal"
    first = BatchEngine(jobs=1, journal=journal_path, retry=FAST).run(tasks)

    header, *records = journal_path.read_text().splitlines()
    header = json.loads(header)
    for task in header["tasks"]:
        task["budget"] = {"deadline_seconds": task.pop("deadline_seconds"),
                          "max_states": None, "check_every": 64}
    journal_path.write_text("\n".join([json.dumps(header, sort_keys=True)]
                                      + records[:-1]) + "\n")

    loaded = RunJournal.load(journal_path)
    assert [t.deadline_seconds for t in loaded.tasks] == [300.0] * len(tasks)
    assert [t.id for t in loaded.pending()] == [tasks[-1].id]
    resumed = BatchEngine(jobs=1, retry=FAST).resume(journal_path)
    assert resumed.ok
    assert resumed.measures_json() == first.measures_json()
