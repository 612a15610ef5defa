"""The ``choreographer batch`` sub-command, end to end."""

from __future__ import annotations

import json

import pytest

from repro.choreographer.cli import main
from repro.obs import RunLedger

PEPA_SRC = """
r = 2.0;
P = (work, r).Q;
Q = (rest, 1.0).P;
P
"""

BROKEN_SRC = "definitely not a model"


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "toy.pepa"
    path.write_text(PEPA_SRC)
    return path


def test_batch_solves_files_and_writes_measures(model_file, tmp_path, capsys):
    measures = tmp_path / "measures.json"
    code = main([
        "batch", str(model_file),
        "--cache-dir", str(tmp_path / "cache"),
        "--measures", str(measures),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "toy" in out and "ok" in out
    document = json.loads(measures.read_text())
    assert document["schema"] == "repro-batch/1"
    assert document["tasks"][0]["measures"]["n_states"] == 2


def test_batch_measures_identical_across_jobs(model_file, tmp_path):
    paths = {}
    for jobs in ("1", "2"):
        paths[jobs] = tmp_path / f"measures-{jobs}.json"
        assert main([
            "batch", str(model_file), "--experiments",
            "--jobs", jobs,
            "--cache-dir", str(tmp_path / "cache"),
            "--measures", str(paths[jobs]),
        ]) == 0
    assert paths["1"].read_bytes() == paths["2"].read_bytes()


def test_batch_no_cache_leaves_no_cache_directory(model_file, tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    code = main([
        "batch", str(model_file),
        "--cache-dir", str(cache_dir), "--no-cache",
    ])
    assert code == 0
    assert "cache: off" in capsys.readouterr().out
    assert not cache_dir.exists()


def test_batch_failing_input_exits_3(model_file, tmp_path):
    broken = tmp_path / "broken.pepa"
    broken.write_text(BROKEN_SRC)
    code = main([
        "batch", str(model_file), str(broken), "--no-cache",
        "--cache-dir", str(tmp_path / "unused-cache"),
    ])
    assert code == 3


def test_batch_without_inputs_exits_2(tmp_path, capsys):
    assert main(["batch", "--cache-dir", str(tmp_path / "c")]) == 2
    assert "nothing to do" in capsys.readouterr().err


def test_batch_merged_artifacts_are_consumable(model_file, tmp_path, capsys):
    ledger = tmp_path / "runs"
    assert main([
        "batch", str(model_file),
        "--cache-dir", str(tmp_path / "cache"),
        "--ledger", str(ledger),
    ]) == 0
    document = RunLedger(ledger).latest()
    # The merged trace is a regular repro-trace/1 forest that runs
    # explain reads...
    assert document["trace"]["schema"] == "repro-trace/1"
    assert main(["runs", "--ledger", str(ledger), "explain"]) == 0
    # ...and the merged events are regular flat records, task-tagged.
    events = document["events"]
    assert events["count"] == len(events["records"]) > 0
    assert all(event["task"] == "toy" for event in events["records"])


def test_batch_document_exports_to_chrome(model_file, tmp_path, capsys):
    ledger = tmp_path / "runs"
    assert main([
        "batch", str(model_file), "--no-cache", "--ledger", str(ledger),
    ]) == 0
    chrome = tmp_path / "trace.chrome.json"
    assert main(["runs", "--ledger", str(ledger), "export",
                 "--chrome", str(chrome)]) == 0
    phases = {event["ph"] for event in json.loads(chrome.read_text())["traceEvents"]}
    assert {"X", "i"} <= phases  # spans and the events track


# ---------------------------------------------------------------------------
# Supervision, chaos and resume through the CLI
# ---------------------------------------------------------------------------
def test_batch_chaos_kill_recovers_and_measures_match(model_file, tmp_path):
    """`--chaos kill:toy@1` with retries: the run recovers and its
    measures are byte-identical to an undisturbed run — the CI chaos
    smoke contract."""
    clean = tmp_path / "clean.json"
    assert main([
        "batch", str(model_file), "--no-cache", "--measures", str(clean),
    ]) == 0
    chaotic = tmp_path / "chaotic.json"
    assert main([
        "batch", str(model_file), "--no-cache", "--jobs", "2",
        "--chaos", "kill:toy@1", "--retries", "2",
        "--measures", str(chaotic),
    ]) == 0
    assert chaotic.read_bytes() == clean.read_bytes()


def test_batch_chaos_exhausted_quarantines_and_exits_3(model_file, tmp_path, capsys):
    code = main([
        "batch", str(model_file), "--no-cache",
        "--chaos", "kill:toy@1,2", "--retries", "1",
    ])
    assert code == 3
    assert "QUARANTINED" in capsys.readouterr().out


def test_batch_bad_chaos_spec_exits_2(model_file, capsys):
    assert main([
        "batch", str(model_file), "--no-cache", "--chaos", "nonsense",
    ]) == 2
    assert "bad --chaos spec" in capsys.readouterr().err


def test_batch_journal_then_resume_byte_identical(model_file, tmp_path):
    clean = tmp_path / "clean.json"
    assert main([
        "batch", str(model_file), "--experiments", "--no-cache",
        "--measures", str(clean),
    ]) == 0

    journal = tmp_path / "run.journal"
    assert main([
        "batch", str(model_file), "--experiments", "--no-cache",
        "--journal", str(journal),
    ]) == 0

    resumed = tmp_path / "resumed.json"
    assert main([
        "batch", "--resume", str(journal), "--no-cache",
        "--measures", str(resumed),
    ]) == 0
    assert resumed.read_bytes() == clean.read_bytes()


def test_batch_resume_rejects_extra_inputs(model_file, tmp_path, capsys):
    journal = tmp_path / "run.journal"
    assert main([
        "batch", str(model_file), "--no-cache", "--journal", str(journal),
    ]) == 0
    assert main([
        "batch", str(model_file), "--resume", str(journal), "--no-cache",
    ]) == 2
    assert "task list from the journal" in capsys.readouterr().err


def test_batch_resume_rejects_journal_flag(model_file, tmp_path, capsys):
    journal = tmp_path / "run.journal"
    assert main([
        "batch", str(model_file), "--no-cache", "--journal", str(journal),
    ]) == 0
    assert main([
        "batch", "--resume", str(journal), "--journal", str(journal),
        "--no-cache",
    ]) == 2
    assert "redundant" in capsys.readouterr().err


def test_batch_cache_max_bytes_keeps_cache_bounded(model_file, tmp_path):
    import os

    cache_dir = tmp_path / "cache"
    budget = 2048
    # Several distinct models so the cache accumulates entries.
    inputs = [str(model_file)]
    for i in range(4):
        path = tmp_path / f"model{i}.pepa"
        path.write_text(PEPA_SRC.replace("2.0", f"{i + 3}.0"))
        inputs.append(str(path))
    assert main([
        "batch", *inputs,
        "--cache-dir", str(cache_dir),
        "--cache-max-bytes", str(budget),
    ]) == 0
    total = sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, names in os.walk(cache_dir) for name in names
    )
    assert total <= budget
