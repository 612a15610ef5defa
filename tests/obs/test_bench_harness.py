"""Schema and behaviour tests for ``benchmarks/run_bench.py``.

The bench harness is not an installed module; it is loaded here straight
from the ``benchmarks/`` directory so the golden ``repro-bench/1`` keys
every later PR compares against are pinned by tests.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parents[2] / "benchmarks" / "run_bench.py"


@pytest.fixture(scope="module")
def run_bench():
    spec = importlib.util.spec_from_file_location("run_bench", _BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN_KEYS = {
    "workload", "kind", "size", "solver",
    "n_states", "n_transitions", "stages", "total_s", "peak_rss_kb",
}
#: present on chain-building runs only (pepa / net)
OPTIONAL_RUN_KEYS = {"generator", "generator_bytes"}


def assert_run_keys(record):
    assert RUN_KEYS <= set(record) <= RUN_KEYS | OPTIONAL_RUN_KEYS
DOC_KEYS = {"schema", "label", "created_unix", "quick", "solver", "host",
            "fault_counters", "runs"}
FAULT_COUNTER_KEYS = {"retries", "quarantined", "cache_evictions", "cache_corrupt"}


def test_workload_table_shape(run_bench):
    assert len(run_bench.WORKLOADS) >= 3
    for name, (kind, builder, sizes) in run_bench.WORKLOADS.items():
        assert kind in {"pepa", "net", "explore", "fluid"}
        assert callable(builder)
        assert len(sizes) >= 2, f"{name} needs >= 2 sizes for the sweep"
    # the kernel-throughput workload is part of the sweep
    assert run_bench.WORKLOADS["explore_throughput"][0] == "explore"


def test_run_one_pepa_record(run_bench):
    record = run_bench.run_one(
        "file_protocol", "pepa", run_bench.file_protocol_model,
        {"n_readers": 1}, "direct",
    )
    assert_run_keys(record)
    assert record["generator"] == "csr"
    assert record["generator_bytes"] > 0
    assert record["n_states"] > 0
    assert record["n_transitions"] > 0
    assert set(record["stages"]) == {"derive", "assemble", "solve"}
    assert all(t >= 0.0 for t in record["stages"].values())
    assert record["total_s"] >= 0.0
    assert record["peak_rss_kb"] > 0
    assert json.dumps(record)  # JSON-clean


def test_run_one_net_record(run_bench):
    from repro.workloads import courier_ring_net

    record = run_bench.run_one(
        "courier_ring", "net", courier_ring_net,
        {"n_places": 3, "n_couriers": 2}, "direct",
    )
    assert_run_keys(record)
    assert record["kind"] == "net"
    assert record["generator"] == "csr"
    assert record["generator_bytes"] > 0
    assert set(record["stages"]) == {"derive", "assemble", "solve"}


def test_run_one_fluid_record(run_bench):
    record = run_bench.run_one(
        "fluid_client_server", "fluid", run_bench.fluid_client_server_model,
        {"replicas": 1000}, "direct",
    )
    assert_run_keys(record)
    assert record["kind"] == "fluid"
    # ODE route: no generator, stage pair is compile+solve, the solver
    # column records the converged fluid method
    assert "generator" not in record
    assert set(record["stages"]) == {"compile", "solve"}
    assert record["solver"] in ("newton", "ode", "damped")
    assert record["n_states"] > 0  # NVF dimension
    assert json.dumps(record)


def test_run_one_explore_record(run_bench):
    from repro.workloads import client_server_model

    record = run_bench.run_one(
        "explore_throughput", "explore", client_server_model,
        {"n_clients": 4}, "direct",
    )
    assert_run_keys(record)
    assert "generator" not in record  # derive-only: no chain, no bytes
    assert record["kind"] == "explore"
    # derive-only: no assemble/solve stages, and a solver-independent
    # identity so --solver sweeps still match across bench documents
    assert set(record["stages"]) == {"derive"}
    assert record["solver"] == "none"
    assert record["n_states"] > 0
    assert json.dumps(record)


def test_run_one_leaves_ambient_collectors_disabled(run_bench):
    from repro.obs import NULL_METRICS, NULL_TRACER, get_metrics, get_tracer

    run_bench.run_one(
        "file_protocol", "pepa", run_bench.file_protocol_model,
        {"n_readers": 1}, "direct",
    )
    assert get_tracer() is NULL_TRACER
    assert get_metrics() is NULL_METRICS


def test_run_suite_quick_document(run_bench, monkeypatch):
    # A miniature sweep so the schema contract is exercised quickly.
    monkeypatch.setattr(run_bench, "WORKLOADS", {
        "file_protocol": (
            "pepa", run_bench.file_protocol_model,
            [{"n_readers": 1}, {"n_readers": 2}, {"n_readers": 3}],
        ),
    })
    document = run_bench.run_suite(quick=True, solver="direct", label="ci",
                                   progress=lambda *_: None)
    assert set(document) == DOC_KEYS
    assert document["schema"] == "repro-bench/1"
    assert document["quick"] is True
    # A healthy sweep reports its fault counters — and they are zero,
    # so the regression gate would surface accidental retries.
    assert set(document["fault_counters"]) == FAULT_COUNTER_KEYS
    assert all(v == 0 for v in document["fault_counters"].values())
    assert document["label"] == "ci"  # not shadowed by per-run progress labels
    assert set(document["host"]) == {"platform", "python", "numpy", "scipy"}
    # quick = first two sizes of each workload
    assert [r["size"] for r in document["runs"]] == [{"n_readers": 1}, {"n_readers": 2}]
    assert json.dumps(document)


def test_main_writes_output_file(run_bench, monkeypatch, tmp_path):
    monkeypatch.setattr(run_bench, "WORKLOADS", {
        "file_protocol": (
            "pepa", run_bench.file_protocol_model,
            [{"n_readers": 1}, {"n_readers": 1}],
        ),
    })
    out = tmp_path / "BENCH_TEST.json"
    assert run_bench.main(["--quick", "-o", str(out)]) == 0
    document = json.loads(out.read_text())
    assert document["schema"] == "repro-bench/1"
    assert len(document["runs"]) == 2


def test_cached_sweep_skips_exploration(run_bench, monkeypatch, tmp_path):
    """A second sweep over a warm cache derives nothing: no ``derive``
    stage in any record, yet identical state counts."""
    monkeypatch.setattr(run_bench, "WORKLOADS", {
        "file_protocol": (
            "pepa", run_bench.file_protocol_model,
            [{"n_readers": 1}, {"n_readers": 2}],
        ),
    })
    cache_dir = str(tmp_path / "cache")
    cold = run_bench.run_suite(quick=True, solver="direct", label="cold",
                               progress=lambda *_: None, cache_dir=cache_dir)
    warm = run_bench.run_suite(quick=True, solver="direct", label="warm",
                               progress=lambda *_: None, cache_dir=cache_dir)
    for cold_run, warm_run in zip(cold["runs"], warm["runs"]):
        assert "derive" in cold_run["stages"]
        assert "derive" not in warm_run["stages"]
        assert warm_run["n_states"] == cold_run["n_states"]
        assert warm_run["n_transitions"] == cold_run["n_transitions"]


def test_parallel_sweep_matches_serial_counts(run_bench, tmp_path):
    """--jobs fans out over workers; counts must match the serial sweep.

    Workers import ``run_bench`` by name, so this exercises the real
    multiprocess path (the module registers its directory on sys.path).
    """
    serial = run_bench.run_suite(quick=False, solver="direct", label="s",
                                 progress=lambda *_: None,
                                 sizes_per_workload=1)
    parallel = run_bench.run_suite(quick=False, solver="direct", label="p",
                                   progress=lambda *_: None,
                                   sizes_per_workload=1, jobs=2,
                                   cache_dir=str(tmp_path / "cache"))
    assert len(parallel["runs"]) == len(serial["runs"])
    for serial_run, parallel_run in zip(serial["runs"], parallel["runs"]):
        assert parallel_run["workload"] == serial_run["workload"]
        assert parallel_run["size"] == serial_run["size"]
        assert parallel_run["n_states"] == serial_run["n_states"]
        assert parallel_run["n_transitions"] == serial_run["n_transitions"]


@pytest.mark.parametrize("name", ["BENCH_PR2.json", "BENCH_PR4.json",
                                  "BENCH_PR9.json"])
def test_checked_in_bench_document_is_schema_valid(run_bench, name):
    bench_path = _BENCH.parent.parent / name
    document = json.loads(bench_path.read_text())
    # Snapshots written before the fault counters existed stay valid.
    assert DOC_KEYS - {"fault_counters"} <= set(document) <= DOC_KEYS
    assert document["schema"] == "repro-bench/1"
    workload_sizes: dict[str, set[str]] = {}
    for record in document["runs"]:
        assert_run_keys(record)
        assert record["n_states"] > 0
        workload_sizes.setdefault(record["workload"], set()).add(
            json.dumps(record["size"], sort_keys=True)
        )
    # Acceptance: >= 3 workloads at >= 2 sizes each, per-stage timings.
    assert len(workload_sizes) >= 3
    assert all(len(sizes) >= 2 for sizes in workload_sizes.values())


def test_pr4_baseline_contains_explore_throughput(run_bench):
    document = json.loads((_BENCH.parent.parent / "BENCH_PR4.json").read_text())
    explore_runs = [r for r in document["runs"]
                    if r["workload"] == "explore_throughput"]
    assert len(explore_runs) >= 2
    assert all(set(r["stages"]) == {"derive"} for r in explore_runs)
    assert all(r["solver"] == "none" for r in explore_runs)


def test_main_records_into_the_ledger(run_bench, monkeypatch, tmp_path):
    from repro.obs import RunLedger

    monkeypatch.setattr(run_bench, "WORKLOADS", {
        "file_protocol": (
            "pepa", run_bench.file_protocol_model,
            [{"n_readers": 1}, {"n_readers": 1}],
        ),
    })
    ledger_dir = tmp_path / "runs"
    out = tmp_path / "BENCH_TEST.json"
    assert run_bench.main(["--quick", "-o", str(out), "--label", "ci",
                           "--ledger", str(ledger_dir)]) == 0
    (document,) = RunLedger(ledger_dir).runs(command="bench")
    assert document["label"] == "ci"
    assert document["bench"]["schema"] == "repro-bench/1"
    assert document["bench"] == json.loads(out.read_text())
    assert document["config"]["quick"] is True


def test_profiled_sweep_writes_collapsed_stacks(run_bench, monkeypatch,
                                                tmp_path):
    monkeypatch.setattr(run_bench, "WORKLOADS", {
        "file_protocol": (
            "pepa", run_bench.file_protocol_model,
            [{"n_readers": 2}, {"n_readers": 2}],
        ),
    })
    folded = tmp_path / "profile.folded"
    assert run_bench.main(["--quick", "-o", str(tmp_path / "b.json"),
                           "--profile-interval", "0.001",
                           "--profile-out", str(folded)]) == 0
    assert folded.exists()


def test_pr9_baseline_contains_descriptor_workloads(run_bench):
    document = json.loads((_BENCH.parent.parent / "BENCH_PR9.json").read_text())
    descriptor_runs = [r for r in document["runs"]
                       if r["kind"] == "pepa-descriptor"]
    assert len(descriptor_runs) >= 2
    assert all(r["generator"] == "descriptor" for r in descriptor_runs)
    assert all(r["generator_bytes"] > 0 for r in descriptor_runs)
