"""The ``choreographer runs`` warehouse CLI: recording runs through the
entrypoints, then listing, showing, comparing, trending, exporting and
pruning them."""

from __future__ import annotations

import argparse
import copy
import json
from pathlib import Path

import pytest

from repro.choreographer.cli import build_parser, main
from repro.obs import RunLedger, build_run_document

MODELS = Path(__file__).resolve().parents[2] / "examples" / "models"

ROAMING = """
Session = (download, 1.0).Roaming;
Roaming = (handover, 0.5).Session;
Session || Session || Session
"""


@pytest.fixture()
def pepa_file(tmp_path):
    path = tmp_path / "model.pepa"
    path.write_text("P = (a, 2.0).Q; Q = (b, 1.0).P; P")
    return path


def span_doc(scale=1.0, label="ci"):
    """A pepa run document whose ctmc.solve span took 0.6 s × ``scale``."""
    solve_s = 0.6 * scale
    trace = {"schema": "repro-trace/1", "traces": [{
        "name": "pepa", "start_unix": 0.0, "duration_s": 0.6 + solve_s,
        "attributes": {}, "children": [{
            "name": "ctmc.solve", "start_unix": 0.3, "duration_s": solve_s,
            "attributes": {}, "children": []}]}]}
    return build_run_document(
        command="pepa", label=label, trace=trace,
        config={"command": "pepa", "model": "file_protocol.pepa"})


@pytest.fixture()
def span_ledger(tmp_path):
    """A ledger holding two clean runs of one pepa config."""
    ledger_dir = tmp_path / "runs"
    ledger = RunLedger(ledger_dir)
    for _ in range(2):
        ledger.record(span_doc())
    return ledger_dir


class TestRecording:
    def test_pepa_run_records_into_the_ledger(self, pepa_file, tmp_path,
                                              capsys):
        ledger_dir = tmp_path / "runs"
        code = main(["pepa", str(pepa_file), "--ledger", str(ledger_dir)])
        assert code == 0
        assert "recorded in ledger" in capsys.readouterr().err
        (document,) = RunLedger(ledger_dir).runs()
        assert document["command"] == "pepa"
        assert document["exit_code"] == 0
        assert document["spans"]  # per-span aggregates came along

    def test_document_carries_the_solve_evidence(self, pepa_file, tmp_path):
        ledger_dir = tmp_path / "runs"
        assert main(["pepa", str(pepa_file), "--ledger", str(ledger_dir)]) == 0
        document = RunLedger(ledger_dir).latest()

        def spans(node):
            yield node
            for child in node["children"]:
                yield from spans(child)

        [solve] = [span for root in document["trace"]["traces"]
                   for span in spans(root) if span["name"] == "ctmc.solve"]
        attributes = solve["attributes"]
        assert attributes["methods"] == "direct,gmres,jacobi"
        assert attributes["solved_by"] == "direct"
        assert attributes["exit_rate_spread"] == 2.0  # exit rates 2 and 1
        assert attributes["residual"] >= 0.0

    def test_profiled_run_embeds_samples_and_trace(self, pepa_file, tmp_path,
                                                   capsys):
        ledger_dir = tmp_path / "runs"
        out = tmp_path / "profile.folded"
        code = main(["pepa", str(pepa_file), "--ledger", str(ledger_dir),
                     "--profile-interval", "0.001"])
        assert code == 0
        (document,) = RunLedger(ledger_dir).runs()
        assert document["trace"]["schema"] == "repro-trace/1"
        # sampling is statistical: the profile section appears only if
        # the short run caught samples; the collapsed export follows it
        code = main(["runs", "--ledger", str(ledger_dir), "export",
                     "--collapsed", str(out)])
        if "profile" in document:
            assert code == 0
            assert out.read_text().endswith("\n")
        else:
            assert code == 2
            assert "no profiler samples" in capsys.readouterr().err

    def test_failed_run_still_leaves_evidence(self, tmp_path, capsys):
        ledger_dir = tmp_path / "runs"
        code = main(["pepa", str(tmp_path / "missing.pepa"),
                     "--ledger", str(ledger_dir)])
        assert code != 0
        (document,) = RunLedger(ledger_dir).runs()
        assert document["exit_code"] == code


class TestRecordingFlags:
    """``--ledger DIR`` is the only way a run records anything."""

    @pytest.mark.parametrize("command, argv", [
        ("analyse", ["{models}/pda_project.xmi",
                     "--rates", "{models}/tomcat.rates"]),
        ("pepa", ["{models}/file_protocol.pepa"]),
        ("net", ["{models}/instant_message.pepanet"]),
        ("fluid", ["{tmp}/roaming.pepa"]),
        ("fuzz", ["--seeds", "1"]),
        ("batch", ["{models}/file_protocol.pepa", "--no-cache"]),
    ])
    def test_every_recording_command_writes_a_complete_document(
            self, command, argv, tmp_path, capsys):
        (tmp_path / "roaming.pepa").write_text(ROAMING)
        argv = [arg.format(models=MODELS, tmp=tmp_path) for arg in argv]
        ledger_dir = tmp_path / "runs"
        assert main([command, *argv, "--ledger", str(ledger_dir)]) == 0
        document = RunLedger(ledger_dir).latest()
        assert document["command"] == command
        assert document["trace"]["schema"] == "repro-trace/1"
        assert document["spans"]
        events = document["events"]
        assert events["count"] == len(events["records"])
        chrome = tmp_path / "trace.chrome.json"
        assert main(["runs", "--ledger", str(ledger_dir), "export",
                     "--chrome", str(chrome)]) == 0
        assert json.loads(chrome.read_text())["traceEvents"]

    @pytest.mark.parametrize("flags", [
        ["--profile"], ["--profile-memory"], ["--profile-interval", "0.01"],
    ])
    @pytest.mark.parametrize("command", ["pepa", "batch"])
    def test_profile_flags_require_the_ledger(self, command, flags, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, str(MODELS / "file_protocol.pepa"), *flags])
        assert exit_info.value.code == 2
        assert "require --ledger" in capsys.readouterr().err

    def test_no_command_accepts_the_removed_options(self):
        def parsers(parser):
            yield parser
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for child in action.choices.values():
                        yield from parsers(child)

        removed = {"--trace", "--metrics", "--events", "--profile-out"}
        seen = 0
        for parser in parsers(build_parser()):
            seen += 1
            assert not removed & set(parser._option_string_actions), parser.prog
        assert seen > 10
        commands = next(a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        assert "analyze-trace" not in commands
        assert "diff-trace" not in commands


class TestQueries:
    def test_list_shows_recorded_runs(self, span_ledger, capsys):
        assert main(["runs", "--ledger", str(span_ledger), "list"]) == 0
        out = capsys.readouterr().out
        assert "000001" in out and "000002" in out
        assert "pepa" in out

    def test_list_empty_store_is_an_error(self, tmp_path, capsys):
        code = main(["runs", "--ledger", str(tmp_path / "nope"), "list"])
        assert code == 2
        assert "no run ledger" in capsys.readouterr().err

    def test_show_latest_and_by_id(self, span_ledger, capsys):
        assert main(["runs", "--ledger", str(span_ledger), "show"]) == 0
        latest = json.loads(capsys.readouterr().out)
        assert latest["run_id"] == "000002"
        assert main(["runs", "--ledger", str(span_ledger),
                     "show", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["run_id"] == "000001"

    def test_compare_two_runs(self, span_ledger, capsys):
        code = main(["runs", "--ledger", str(span_ledger),
                     "compare", "000001", "000002"])
        assert code == 0
        assert "No regressions" in capsys.readouterr().out
        RunLedger(span_ledger).record(span_doc(scale=3.0))
        code = main(["runs", "--ledger", str(span_ledger),
                     "compare", "000001", "000003"])
        assert code == 1
        assert "ctmc.solve" in capsys.readouterr().out

    def test_compare_across_configs_is_not_comparable(self, span_ledger,
                                                      capsys):
        ledger = RunLedger(span_ledger)
        ledger.record(build_run_document(command="analyse"))
        other = span_doc()
        other["config_fingerprint"] = "another-config"
        ledger.record(other)
        code = main(["runs", "--ledger", str(span_ledger),
                     "compare", "000001", "000004"])
        assert code == 2
        assert "not comparable" in capsys.readouterr().err
        # a run without span aggregates cannot be compared either
        code = main(["runs", "--ledger", str(span_ledger),
                     "compare", "000001", "000003"])
        assert code == 2

    def test_prune(self, span_ledger, capsys):
        assert main(["runs", "--ledger", str(span_ledger),
                     "prune", "--keep", "1"]) == 0
        assert RunLedger(span_ledger).run_ids() == ["000002"]


class TestTrend:
    def test_clean_history_exits_zero(self, span_ledger, capsys):
        code = main(["runs", "--ledger", str(span_ledger), "trend"])
        assert code == 0
        assert "No regressions" in capsys.readouterr().out

    def test_injected_slowdown_exits_one_and_names_the_stage(
            self, span_ledger, tmp_path, capsys):
        RunLedger(span_ledger).record(span_doc(scale=3.0))
        report = tmp_path / "trend.md"
        code = main(["runs", "--ledger", str(span_ledger), "trend",
                     "--report", str(report)])
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "**ctmc.solve**" in out and "**pepa**" in out
        assert "REGRESSION" in report.read_text()

    def test_window_and_threshold_flags(self, span_ledger, capsys):
        RunLedger(span_ledger).record(span_doc(scale=3.0))
        # a 10x threshold tolerates the 3x slowdown
        assert main(["runs", "--ledger", str(span_ledger), "trend",
                     "--threshold", "10.0"]) == 0

    def test_runs_without_spans_are_ignored(self, span_ledger, capsys):
        RunLedger(span_ledger).record(span_doc(scale=3.0))
        RunLedger(span_ledger).record(
            build_run_document(command="analyse"))
        # the newest run with spans (the slow one) is still the judged one
        assert main(["runs", "--ledger", str(span_ledger), "trend"]) == 1

    def test_cli_recorded_runs_trend_and_catch_a_solve_slowdown(
            self, pepa_file, tmp_path, capsys):
        ledger_dir = tmp_path / "runs"
        for _ in range(2):
            assert main(["pepa", str(pepa_file), "--ledger",
                         str(ledger_dir)]) == 0
        ledger = RunLedger(ledger_dir)
        assert main(["runs", "--ledger", str(ledger_dir), "trend"]) == 0
        assert "No regressions" in capsys.readouterr().out

        slow = copy.deepcopy(ledger.latest())
        solve = slow["spans"]["ctmc.solve"]
        solve["total_s"] = solve["total_s"] * 3 + 0.2
        ledger.record(slow)
        report = tmp_path / "trend.md"
        code = main(["runs", "--ledger", str(ledger_dir), "trend",
                     "--report", str(report)])
        assert code == 1
        assert "ctmc.solve" in capsys.readouterr().out
        assert "**ctmc.solve**" in report.read_text()

        # a run of another model is never judged against pepa history
        assert main(["net", str(MODELS / "instant_message.pepanet"),
                     "--ledger", str(ledger_dir)]) == 0
        capsys.readouterr()
        assert main(["runs", "--ledger", str(ledger_dir), "trend"]) == 0
        assert "Not enough history" in capsys.readouterr().out
        assert main(["runs", "--ledger", str(ledger_dir), "trend",
                     "--command", "pepa"]) == 1
        code = main(["runs", "--ledger", str(ledger_dir),
                     "compare", "000001", "000004"])
        assert code == 2
        assert "not comparable" in capsys.readouterr().err


class TestExport:
    def _trace_run(self, ledger_dir):
        trace = {"schema": "repro-trace/1", "traces": [{
            "name": "pipeline", "start_unix": 100.0, "duration_s": 1.0,
            "pid": 1, "tid": 1, "attributes": {}, "children": [],
        }]}
        metrics = {"schema": "repro-metrics/1", "metrics": {
            "states_explored": {"type": "counter", "value": 9}}}
        RunLedger(ledger_dir).record(build_run_document(
            command="pepa", trace=trace, metrics=metrics,
            profile={"schema": "repro-profile/1", "interval_s": 0.001,
                     "sample_count": 1, "samples": {"pipeline;solve": 1},
                     "timeline": [[0.1, "pipeline;solve"]],
                     "timeline_dropped": 0}))

    def test_chrome_and_prometheus_and_collapsed(self, tmp_path, capsys):
        ledger_dir = tmp_path / "runs"
        self._trace_run(ledger_dir)
        chrome = tmp_path / "trace.json"
        prom = tmp_path / "metrics.prom"
        folded = tmp_path / "profile.folded"
        code = main(["runs", "--ledger", str(ledger_dir), "export",
                     "--chrome", str(chrome), "--prometheus", str(prom),
                     "--collapsed", str(folded)])
        assert code == 0
        events = json.loads(chrome.read_text())["traceEvents"]
        assert all({"name", "ph", "ts", "pid", "tid"} <= set(e)
                   for e in events)
        assert "repro_states_explored_total 9" in prom.read_text()
        assert folded.read_text() == "pipeline;solve 1\n"

    def test_export_without_format_flag_is_an_error(self, tmp_path, capsys):
        ledger_dir = tmp_path / "runs"
        self._trace_run(ledger_dir)
        assert main(["runs", "--ledger", str(ledger_dir), "export"]) == 2

    def test_chrome_export_without_embedded_trace_is_an_error(
            self, tmp_path, capsys):
        ledger_dir = tmp_path / "runs"
        RunLedger(ledger_dir).record(build_run_document(command="analyse"))
        code = main(["runs", "--ledger", str(ledger_dir), "export",
                     "--chrome", str(tmp_path / "t.json")])
        assert code == 2
        assert "trace" in capsys.readouterr().err
