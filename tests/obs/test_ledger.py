"""The persistent run ledger: atomic append-only storage, id claiming,
querying, pruning and run-document assembly."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    EventStream,
    MetricsRegistry,
    RunLedger,
    Tracer,
    build_run_document,
)
from repro.obs.ledger import LEDGER_FORMAT, RUN_SCHEMA


def make_doc(command="analyse", **kwargs):
    return build_run_document(command=command, **kwargs)


class TestStore:
    def test_record_assigns_sequential_zero_padded_ids(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        assert ledger.record(make_doc()) == "000001"
        assert ledger.record(make_doc()) == "000002"
        assert ledger.run_ids() == ["000001", "000002"]
        assert len(ledger) == 2

    def test_load_roundtrip_and_padding_optional(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.record(make_doc(label="alpha"))
        assert ledger.load("1")["label"] == "alpha"
        assert ledger.load("000001")["run_id"] == "000001"

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            RunLedger(tmp_path).load("42")

    def test_format_marker_written_and_checked(self, tmp_path):
        RunLedger(tmp_path)
        assert (tmp_path / "FORMAT").read_text().strip() == LEDGER_FORMAT
        (tmp_path / "FORMAT").write_text("repro-runs/0\n")
        with pytest.raises(ValueError, match="repro-runs/0"):
            RunLedger(tmp_path)

    def test_record_rejects_non_run_documents(self, tmp_path):
        with pytest.raises(ValueError, match="schema"):
            RunLedger(tmp_path).record({"schema": "something-else/1"})

    def test_two_writers_never_share_an_id(self, tmp_path):
        # two independent handles on the same store, interleaved: the
        # exclusive-create claim pushes the loser to the next id
        a, b = RunLedger(tmp_path), RunLedger(tmp_path)
        ids = [a.record(make_doc()), b.record(make_doc()),
               a.record(make_doc()), b.record(make_doc())]
        assert ids == sorted(set(ids))
        assert len(a.run_ids()) == 4

    def test_runs_filters_by_command_and_tail_limits(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for command in ("batch", "analyse", "batch", "pepa"):
            ledger.record(make_doc(command=command))
        batches = ledger.runs(command="batch")
        assert [d["command"] for d in batches] == ["batch", "batch"]
        assert [d["run_id"] for d in ledger.runs(last=2)] == \
               ["000003", "000004"]

    def test_torn_document_is_skipped_not_fatal(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.record(make_doc())
        (tmp_path / "run-000002.json").write_text('{"torn')
        assert [d["run_id"] for d in ledger.runs()] == ["000001"]
        # ...but a new record still lands after the dead id
        assert ledger.record(make_doc()) == "000003"

    def test_latest_and_empty(self, tmp_path):
        ledger = RunLedger(tmp_path)
        assert ledger.latest() is None
        ledger.record(make_doc(label="old"))
        ledger.record(make_doc(label="new"))
        assert ledger.latest()["label"] == "new"

    def test_prune_keeps_newest(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for _ in range(5):
            ledger.record(make_doc())
        assert ledger.prune(keep=2) == 3
        assert ledger.run_ids() == ["000004", "000005"]
        assert ledger.prune(keep=0) == 2
        with pytest.raises(ValueError):
            ledger.prune(keep=-1)

    def test_no_temp_files_left_behind(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.record(make_doc())
        leftovers = [p.name for p in tmp_path.iterdir()
                     if p.name.startswith(".")]
        assert leftovers == []


class TestBuildRunDocument:
    def test_minimal_document(self):
        document = build_run_document(command="analyse", created_unix=123.5)
        assert document["schema"] == RUN_SCHEMA
        assert document["command"] == "analyse"
        assert document["created_unix"] == 123.5
        assert document["label"] is None
        assert "platform" in document["host"]
        assert document["config"] == {}
        assert isinstance(document["config_fingerprint"], str)

    def test_config_fingerprint_tracks_config(self):
        a = build_run_document(command="x", config={"solver": "direct"})
        b = build_run_document(command="x", config={"solver": "gmres"})
        c = build_run_document(command="x", config={"solver": "direct"})
        assert a["config_fingerprint"] == c["config_fingerprint"]
        assert a["config_fingerprint"] != b["config_fingerprint"]

    def test_collector_sections(self):
        tracer, metrics, events = Tracer(), MetricsRegistry(), EventStream()
        with tracer.span("stage.solve"):
            pass
        metrics.counter("states_explored").inc(7)
        events.emit("solver.converged", iterations=3)
        document = build_run_document(
            command="analyse", trace=tracer.to_dict(),
            metrics=metrics.as_dict(), events=events.to_dicts(),
            events_dropped=events.dropped)
        assert document["spans"]["stage.solve"]["count"] == 1
        assert document["trace"] == tracer.to_dict()
        assert document["metrics"]["states_explored"]["value"] == 7
        assert document["events"] == {
            "count": 1, "dropped": 0, "by_name": {"solver.converged": 1},
            "records": events.to_dicts()}

    def test_events_accepts_plain_dicts(self):
        document = build_run_document(
            command="batch",
            events=[{"event": "task.done"}, {"event": "task.done"},
                    {"event": "task.failed"}])
        assert document["events"]["by_name"] == \
               {"task.done": 2, "task.failed": 1}
        assert document["events"]["dropped"] == 0

    def test_events_dropped_is_recorded(self):
        document = build_run_document(
            command="batch", events=[{"event": "e"}], events_dropped=500)
        assert document["events"]["count"] == 1
        assert document["events"]["dropped"] == 500

    def test_empty_profile_is_elided(self):
        empty = {"schema": "repro-profile/1", "sample_count": 0, "samples": {}}
        full = {"schema": "repro-profile/1", "sample_count": 3,
                "samples": {"a;b": 3}}
        assert "profile" not in build_run_document(command="x", profile=empty)
        assert build_run_document(command="x", profile=full)["profile"] == full

    def test_optional_sections_and_extra(self):
        # batch hands over its merged trace document
        merged = {"schema": "repro-trace/1", "traces": [{
            "name": "batch.task", "start_unix": 0.0, "duration_s": 0.25,
            "attributes": {}, "children": []}]}
        document = build_run_document(
            command="batch",
            trace=merged,
            metrics={"schema": "repro-metrics/1", "metrics": {
                "cache.hits": {"type": "counter", "value": 3},
                "cache.misses": {"type": "counter", "value": 1}}},
            incidents=[{"task": "t1"}],
            tasks_fingerprint="abc123",
            extra={"exit_code": 0},
        )
        assert document["spans"]["batch.task"]["total_s"] == 0.25
        # cache traffic is the metrics' cache.* counters, nowhere else
        assert document["metrics"]["cache.hits"]["value"] == 3
        assert document["metrics"]["cache.misses"]["value"] == 1
        assert "cache" not in document
        assert document["incidents"] == [{"task": "t1"}]
        assert document["trace"] == merged
        assert document["tasks_fingerprint"] == "abc123"
        assert document["exit_code"] == 0

    def test_document_is_json_serialisable(self, tmp_path):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        document = build_run_document(command="x", trace=tracer.to_dict(),
                                      config={"path": str(tmp_path)})
        json.dumps(document)
        ledger = RunLedger(tmp_path / "runs")
        run_id = ledger.record(document)
        assert ledger.load(run_id)["command"] == "x"
