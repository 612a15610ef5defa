"""The batch-layer chaos harness: fault plans, spec parsing, ambient
installation, and the cache-level fault hooks."""

from __future__ import annotations

import pickle

import pytest

from repro.batch.cache import DerivationCache
from repro.core.keys import DerivationKey
from repro.obs import MetricsRegistry, ObsContext, use_obs
from repro.resilience.faultinject import (
    BATCH_FAULT_KINDS,
    BatchFault,
    BatchFaultPlan,
    InjectedWorkerCrash,
    current_task,
    get_batch_faults,
    get_current_task,
    set_batch_faults,
    use_batch_faults,
)


def test_fault_kind_validated():
    with pytest.raises(ValueError, match="unknown batch fault kind"):
        BatchFault(kind="meteor-strike")
    for kind in BATCH_FAULT_KINDS:
        BatchFault(kind=kind)  # all documented kinds construct


def test_matches_task_and_attempt():
    fault = BatchFault(kind="kill", task="model", attempts=(1, 3))
    assert fault.matches("model", 1)
    assert not fault.matches("model", 2)
    assert fault.matches("model", 3)
    assert not fault.matches("other", 1)
    wildcard = BatchFault(kind="hang", task=None)
    assert wildcard.matches("anything", 1)
    assert not wildcard.matches("anything", 2)


@pytest.mark.parametrize("spec,kind,task,attempts,delay", [
    ("kill:model", "kill", "model", (1,), 30.0),
    ("kill:model@2,3", "kill", "model", (2, 3), 30.0),
    ("hang:model@1:0.5", "hang", "model", (1,), 0.5),
    ("cache-enospc:*", "cache-enospc", None, (1,), 30.0),
    ("cache-bitflip:@1,2", "cache-bitflip", None, (1, 2), 30.0),
])
def test_parse_spec_grammar(spec, kind, task, attempts, delay):
    plan = BatchFaultPlan.parse([spec])
    assert len(plan.faults) == 1
    fault = plan.faults[0]
    assert (fault.kind, fault.task, fault.attempts, fault.delay) == \
        (kind, task, attempts, delay)


@pytest.mark.parametrize("bad", ["kill", "nonsense:model", "kill:m@x"])
def test_parse_rejects_malformed_specs(bad):
    with pytest.raises(ValueError):
        BatchFaultPlan.parse([bad])


def test_plan_is_picklable():
    """Plans ship to pool workers via initargs — they must pickle."""
    plan = BatchFaultPlan.parse(["kill:a@1", "hang:b@1,2:5"])
    assert pickle.loads(pickle.dumps(plan)) == plan


def test_apply_task_start_inline_kill_raises_crash():
    plan = BatchFaultPlan.parse(["kill:model@1"])
    with pytest.raises(InjectedWorkerCrash):
        plan.apply_task_start("model", 1, inline=True)
    plan.apply_task_start("model", 2, inline=True)  # attempt 2: no fault
    plan.apply_task_start("other", 1, inline=True)  # other task: no fault


def test_injected_crash_is_not_an_exception():
    """The crash stand-in must sail past ``except Exception`` capture."""
    assert issubclass(InjectedWorkerCrash, BaseException)
    assert not issubclass(InjectedWorkerCrash, Exception)


def test_apply_task_start_task_error_raises_runtime_error():
    plan = BatchFaultPlan.parse(["task-error:model@1"])
    with pytest.raises(RuntimeError, match="injected"):
        plan.apply_task_start("model", 1, inline=True)


def test_apply_task_start_hang_sleeps(monkeypatch):
    naps = []
    monkeypatch.setattr("repro.resilience.faultinject.time.sleep", naps.append)
    BatchFaultPlan.parse(["hang:model@1:12.5"]).apply_task_start(
        "model", 1, inline=True)
    assert naps == [12.5]


def test_ambient_plan_install_and_restore():
    plan = BatchFaultPlan.parse(["kill:x@1"])
    assert get_batch_faults() is None
    with use_batch_faults(plan):
        assert get_batch_faults() is plan
        with use_batch_faults(None):
            assert get_batch_faults() is None
        assert get_batch_faults() is plan
    assert get_batch_faults() is None


def test_current_task_scoping():
    assert get_current_task() is None
    with current_task("model", 2):
        assert get_current_task() == ("model", 2)
        with current_task("inner", 1):
            assert get_current_task() == ("inner", 1)
        assert get_current_task() == ("model", 2)
    assert get_current_task() is None


# ---------------------------------------------------------------------------
# Cache-level faults through the real DerivationCache
# ---------------------------------------------------------------------------
@pytest.fixture
def metrics():
    """The registry the cache counts into for the test's duration."""
    registry = MetricsRegistry()
    with use_obs(ObsContext(metrics=registry)):
        yield registry


def test_enospc_fault_degrades_store(tmp_path, metrics):
    cache = DerivationCache(tmp_path / "cache")
    key = DerivationKey.of("pepa", "src")
    plan = BatchFaultPlan.parse(["cache-enospc:model@1"])
    with use_batch_faults(plan), current_task("model", 1):
        assert cache.store(key, {"schema": "x"}) is None
    assert metrics.counter("cache.store_errors").value == 1
    assert key not in cache
    # Attempt 2 (fault exhausted): the store goes through.
    with use_batch_faults(plan), current_task("model", 2):
        assert cache.store(key, {"schema": "x"}) is not None
    assert key in cache


def test_bitflip_fault_caught_by_checksum(tmp_path, metrics):
    cache = DerivationCache(tmp_path / "cache")
    key = DerivationKey.of("pepa", "src")
    plan = BatchFaultPlan.parse(["cache-bitflip:model@1"])
    with use_batch_faults(plan), current_task("model", 1):
        cache.store(key, {"schema": "x", "value": 9})
    # The entry was published, then sabotaged; the checksum must catch it.
    assert cache.fetch(key) is None
    assert metrics.counter("cache.corrupt").value == 1
    # verify() on an already-purged store finds nothing further.
    assert cache.verify()["corrupt"] == 0


def test_no_plan_means_no_fault_cost(tmp_path, metrics):
    cache = DerivationCache(tmp_path / "cache")
    key = DerivationKey.of("pepa", "src")
    set_batch_faults(None)
    with current_task("model", 1):
        assert cache.store(key, {"schema": "x"}) is not None
    assert cache.fetch(key) == {"schema": "x"}
    assert metrics.counter("cache.store_errors").value == 0
