"""Supervised execution: retries, crash recovery, timeouts, quarantine.

The chaos battery for the batch layer — every recovery path the engine
promises is proven here under deterministic injected faults.  Pool
scenarios run with real SIGKILLed workers; inline scenarios use the
:class:`InjectedWorkerCrash` stand-in through the same supervisor.
"""

from __future__ import annotations

import pytest

from repro.batch import BatchEngine, BatchTask, run_batch
from repro.batch.engine import RetryPolicy, execute_task
from repro.obs import EventStream, MetricsRegistry, ObsContext, Tracer, use_obs
from repro.resilience.faultinject import BatchFaultPlan

FAST = RetryPolicy(retries=2, backoff=0.0)

SRC = """
r = 2.0;
P = (work, r).Q;
Q = (rest, 1.0).P;
P
"""


def _call(task_id: str, target: str, **kwargs) -> BatchTask:
    return BatchTask(id=task_id, kind="call", payload={
        "target": f"tests.batch.chaos_helpers:{target}", "kwargs": kwargs,
    })


def _model(task_id: str) -> BatchTask:
    return BatchTask(id=task_id, kind="pepa", payload={"source": SRC})


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------
def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(backoff=-0.1)
    with pytest.raises(ValueError):
        RetryPolicy(task_timeout=0)


def test_backoff_is_exponential_and_capped():
    policy = RetryPolicy(retries=5, backoff=0.5, max_backoff=1.5)
    assert policy.backoff_before(1) == 0.0
    assert policy.backoff_before(2) == 0.5
    assert policy.backoff_before(3) == 1.0
    assert policy.backoff_before(4) == 1.5  # capped
    assert RetryPolicy(backoff=0.0).backoff_before(5) == 0.0


# ---------------------------------------------------------------------------
# execute_task's exception ladder (the satellite fix)
# ---------------------------------------------------------------------------
def test_memory_error_captured_with_truncated_context():
    result = execute_task(_call("oom", "raise_memory_error"))
    assert not result.ok
    assert result.error.startswith("MemoryError:")
    assert len(result.error) <= len("MemoryError: ") + 120
    assert result.error_context["truncated"] is True


def test_system_exit_captured_not_fatal():
    result = execute_task(_call("exiter", "raise_system_exit"))
    assert not result.ok
    assert result.error == "SystemExit: 42"
    assert result.error_context["exit_code"] == "42"


def test_keyboard_interrupt_reraised():
    with pytest.raises(KeyboardInterrupt):
        execute_task(_call("ctrl-c", "raise_keyboard_interrupt"))


def test_repro_error_context_carried_and_bounded():
    result = execute_task(_call("ctx", "raise_repro_error"))
    assert not result.ok
    assert result.error_context["stage"] == "test"
    assert result.error_context["model"] == "chaos"
    assert len(result.error_context["detail"]) <= 200  # truncated from 500


def test_plain_failure_has_empty_context():
    result = execute_task(BatchTask(id="x", kind="nonsense"))
    assert not result.ok and result.error_context == {}


# ---------------------------------------------------------------------------
# Inline supervision (jobs=1): simulated crashes, transient errors
# ---------------------------------------------------------------------------
def test_inline_transient_error_retried_to_success(tmp_path):
    report = run_batch(
        [_call("flaky", "fail_first_attempts",
               counter_dir=str(tmp_path / "count"), times=2)],
        retry=FAST,
    )
    assert report.ok
    assert report.results[0].attempts == 3
    assert report.retries == 2


def test_inline_kill_fault_retried_then_recovers():
    plan = BatchFaultPlan.parse(["kill:victim@1"])
    report = run_batch(
        [_model("victim"), _model("bystander")],
        retry=FAST, faults=plan,
    )
    assert report.ok
    victim, bystander = report.results
    assert victim.attempts == 2 and victim.measures["n_states"] == 2
    assert bystander.attempts == 1
    assert len(report.quarantined) == 0
    assert any(i["incident"] == "retry" and i["reason"] == "crash"
               for i in report.incidents)


def test_inline_persistent_kill_quarantines():
    plan = BatchFaultPlan.parse(["kill:victim@1,2,3"])
    report = run_batch(
        [_model("victim"), _model("bystander")],
        retry=FAST, faults=plan,
    )
    assert not report.ok
    victim = report.results[0]
    assert victim.quarantined
    assert victim.attempts == 3
    assert "WorkerCrash" in victim.error
    assert report.results[1].ok  # the bystander is untouched
    assert "QUARANTINED" in report.summary()
    assert any(i["incident"] == "quarantine" for i in report.incidents)


def test_retries_exhausted_on_persistent_error_not_quarantined(tmp_path):
    report = run_batch(
        [_call("always", "fail_first_attempts",
               counter_dir=str(tmp_path / "count"), times=99)],
        retry=FAST,
    )
    result = report.results[0]
    assert not result.ok
    assert result.attempts == 3
    assert not result.quarantined  # it *ran*; it just failed


def test_supervisor_emits_retry_events_and_metrics():
    plan = BatchFaultPlan.parse(["kill:victim@1"])
    events, metrics = EventStream(), MetricsRegistry()
    with use_obs(ObsContext(metrics=metrics, events=events)):
        run_batch([_model("victim")], retry=FAST, faults=plan)
    assert len(events.by_name("batch.retry")) == 1
    assert metrics.counter("batch.retries").value == 1


def _span_tree(span: dict) -> tuple:
    return (span["name"], tuple(_span_tree(c) for c in span["children"]))


@pytest.mark.parametrize("jobs", [1, 2])
def test_tasks_are_isolated_from_a_live_parent_context(jobs):
    """A caller with live collectors and an open span: every task still
    records only its own spans, and only supervisor events reach the
    caller's stream."""
    alone = execute_task(_model("alone"))
    expected = [_span_tree(root) for root in alone.trace["traces"]]
    assert expected
    parent = ObsContext(Tracer(), MetricsRegistry(), EventStream())
    engine = BatchEngine(jobs=jobs, mp_start="fork", retry=FAST,
                         faults=BatchFaultPlan.parse(["kill:victim@1"]))
    with use_obs(parent), parent.tracer.span("caller") as caller:
        report = engine.run([_model("a"), _model("victim"), _model("b")])
    assert report.ok
    for result in report.results:
        assert [_span_tree(root) for root in result.trace["traces"]] == expected
    assert caller.children == []
    assert [root.name for root in parent.tracer.roots] == ["caller"]
    # a killed worker may take a co-running task down with the victim
    retried = {e.fields["task"] for e in parent.events.by_name("batch.retry")}
    assert "victim" in retried
    assert all(name.startswith("batch.") for name in parent.events.names())
    assert all(name.startswith("batch.") for name in parent.metrics.names())


def test_zero_retries_quarantines_immediately():
    plan = BatchFaultPlan.parse(["kill:victim@1"])
    report = run_batch([_model("victim")],
                       retry=RetryPolicy(retries=0), faults=plan)
    assert report.results[0].quarantined
    assert report.results[0].attempts == 1


# ---------------------------------------------------------------------------
# Pool supervision (jobs>=2): real worker deaths, hangs, rebuilds
# ---------------------------------------------------------------------------
def test_pool_worker_kill_poisons_only_its_task():
    """A real SIGKILLed worker: the pool is rebuilt, the victim retried,
    every other task unaffected — the tentpole acceptance scenario."""
    plan = BatchFaultPlan.parse(["kill:victim@1"])
    report = run_batch(
        [_model("a"), _model("victim"), _model("b"), _model("c")],
        jobs=2, retry=FAST, faults=plan,
    )
    assert report.ok
    by_id = {r.task_id: r for r in report.results}
    assert by_id["victim"].attempts >= 2
    assert by_id["victim"].measures["n_states"] == 2
    assert [r.task_id for r in report.results] == ["a", "victim", "b", "c"]
    assert any(i["incident"] == "pool-rebuild" for i in report.incidents)


def test_pool_persistent_kill_quarantines_victim_only():
    plan = BatchFaultPlan.parse(["kill:victim@1,2,3"])
    report = run_batch(
        [_model("a"), _model("victim"), _model("b")],
        jobs=2, retry=FAST, faults=plan,
    )
    assert not report.ok
    by_id = {r.task_id: r for r in report.results}
    assert by_id["victim"].quarantined
    assert by_id["a"].ok and by_id["b"].ok


def test_pool_hung_task_times_out_and_recovers():
    """An injected hang trips the per-task timeout; the pool is rebuilt
    and the task succeeds on its (fault-free) second attempt."""
    plan = BatchFaultPlan.parse(["hang:sleeper@1:30"])
    report = run_batch(
        [_model("a"), _model("sleeper"), _model("b")],
        jobs=2, retry=RetryPolicy(retries=2, backoff=0.0, task_timeout=1.0),
        faults=plan,
    )
    assert report.ok
    by_id = {r.task_id: r for r in report.results}
    assert by_id["sleeper"].attempts == 2
    assert any(i.get("reason") == "timeout" for i in report.incidents)


def test_pool_persistent_hang_quarantines_with_timeout_error():
    plan = BatchFaultPlan.parse(["hang:sleeper@1,2:30"])
    report = run_batch(
        [_model("sleeper"), _model("a")],
        jobs=2, retry=RetryPolicy(retries=1, backoff=0.0, task_timeout=0.5),
        faults=plan,
    )
    by_id = {r.task_id: r for r in report.results}
    assert by_id["sleeper"].quarantined
    assert "TaskTimeout" in by_id["sleeper"].error
    assert by_id["a"].ok


def test_pool_kill_and_hang_together_only_affected_tasks_fail():
    """The acceptance criterion: one killed worker AND one hung task in
    the same run; only the two affected tasks burn retries, everything
    else completes, and with faults on *every* attempt both quarantine."""
    plan = BatchFaultPlan.parse(["kill:crasher@1,2", "hang:sleeper@1,2:30"])
    report = run_batch(
        [_model("a"), _model("crasher"), _model("sleeper"), _model("b")],
        jobs=2, retry=RetryPolicy(retries=1, backoff=0.0, task_timeout=1.0),
        faults=plan,
    )
    by_id = {r.task_id: r for r in report.results}
    assert by_id["a"].ok and by_id["b"].ok
    assert by_id["crasher"].quarantined
    assert by_id["sleeper"].quarantined
    assert len(report.failures) == 2


def test_pool_measures_identical_to_serial_despite_recovered_crash(tmp_path):
    """A retried-then-recovered task is a healthy task: the measures
    document stays byte-identical to an undisturbed serial run."""
    tasks = [_model("m1"), _model("m2"), _model("m3")]
    clean = run_batch(tasks, jobs=1).measures_json()
    plan = BatchFaultPlan.parse(["kill:m2@1"])
    chaotic = run_batch(tasks, jobs=2, retry=FAST, faults=plan).measures_json()
    assert chaotic == clean
