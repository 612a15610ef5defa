"""Unit tests for the choreographer CLI."""

import json
from pathlib import Path

import pytest

from repro.choreographer.cli import main
from repro.obs import RunLedger, build_run_document
from repro.uml.model import UmlModel
from repro.uml.xmi import add_synthetic_layout, write_model
from repro.workloads import build_instant_message_diagram, build_client_statechart

GOLDENS = Path(__file__).resolve().parents[1] / "goldens"
EXAMPLE_MODELS = Path(__file__).resolve().parents[2] / "examples" / "models"


@pytest.fixture()
def xmi_file(tmp_path):
    model = UmlModel(name="project")
    model.add_activity_graph(build_instant_message_diagram())
    model.add_state_machine(build_client_statechart())
    # the client alone blocks on its passive 'response'; drop it for CLI
    model.state_machines.clear()
    path = tmp_path / "model.xmi"
    path.write_text(add_synthetic_layout(write_model(model)))
    return path


@pytest.fixture()
def pepa_file(tmp_path):
    path = tmp_path / "model.pepa"
    path.write_text("P = (a, 2.0).Q; Q = (b, 1.0).P; P")
    return path


@pytest.fixture()
def net_file(tmp_path):
    path = tmp_path / "model.pepanet"
    path.write_text(
        """
        Tok = (go, 1).Tok;
        A[Tok] = Tok[_];
        B[_] = Tok[_];
        ab = (go, 1) : A -> B;
        ba = (go, 1) : B -> A;
        """
    )
    return path


class TestAnalyse:
    def test_analyse_prints_report_and_writes_output(self, xmi_file, tmp_path, capsys):
        out = tmp_path / "reflected.xmi"
        code = main(["analyse", str(xmi_file), "-o", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "transmit" in captured
        assert out.exists()
        assert "throughput" in out.read_text()

    def test_analyse_with_rates_file(self, xmi_file, tmp_path, capsys):
        rates = tmp_path / "m.rates"
        rates.write_text("transmit = 5.0\n")
        code = main(["analyse", str(xmi_file), "--rates", str(rates)])
        assert code == 0

    def test_missing_file_is_error(self, capsys):
        code = main(["analyse", "no/such/file.xmi"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestPepa:
    def test_solve_and_report(self, pepa_file, capsys):
        code = main(["pepa", str(pepa_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 states" in out
        assert "throughput" in out

    def test_prism_export(self, pepa_file, tmp_path, capsys):
        stem = tmp_path / "out" / "model"
        stem.parent.mkdir()
        code = main(["pepa", str(pepa_file), "--export-prism", str(stem)])
        assert code == 0
        assert (tmp_path / "out" / "model.tra").exists()

    def test_solver_flag(self, pepa_file, capsys):
        code = main(["pepa", str(pepa_file), "--solver", "jacobi"])
        assert code == 0
        assert "jacobi" in capsys.readouterr().out

    def test_syntax_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.pepa"
        bad.write_text("P = = ;")
        code = main(["pepa", str(bad)])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestNet:
    def test_solve_and_report(self, net_file, capsys):
        code = main(["net", str(net_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 markings" in out
        assert "mean tokens" in out


class TestSimulate:
    def test_simulate_pepa_model(self, pepa_file, capsys):
        code = main(["simulate", str(pepa_file), "--t-end", "200",
                     "--replications", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "replications" in out
        assert "a" in out and "b" in out

    def test_simulate_net(self, net_file, capsys):
        code = main(["simulate", str(net_file), "--t-end", "200",
                     "--replications", "4", "--warmup", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "go" in out

    def test_simulate_reproducible(self, pepa_file, capsys):
        main(["simulate", str(pepa_file), "--t-end", "100", "--replications", "3"])
        first = capsys.readouterr().out
        main(["simulate", str(pepa_file), "--t-end", "100", "--replications", "3"])
        second = capsys.readouterr().out
        assert first == second


class TestSensitivity:
    def test_profile_printed(self, pepa_file, capsys):
        code = main(["sensitivity", str(pepa_file), "--measure", "a"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sensitivity" in out
        assert "a" in out and "b" in out

    def test_unknown_measure_is_error(self, pepa_file, capsys):
        code = main(["sensitivity", str(pepa_file), "--measure", "ghost"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestDot:
    def test_net_both_views_to_stdout(self, net_file, capsys):
        code = main(["dot", str(net_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "digraph pepanet" in out
        assert "digraph markings" in out

    def test_pepa_states_view(self, pepa_file, capsys):
        code = main(["dot", str(pepa_file), "--what", "states"])
        out = capsys.readouterr().out
        assert code == 0
        assert "digraph pepa" in out

    def test_pepa_structure_view_is_error(self, pepa_file, capsys):
        code = main(["dot", str(pepa_file), "--what", "structure"])
        assert code == 2
        assert "structure" in capsys.readouterr().err

    def test_write_files(self, net_file, tmp_path, capsys):
        stem = tmp_path / "render"
        code = main(["dot", str(net_file), "-o", str(stem)])
        assert code == 0
        assert (tmp_path / "render.structure.dot").exists()
        assert (tmp_path / "render.states.dot").exists()


class TestValidate:
    def test_valid_model(self, xmi_file, capsys):
        code = main(["validate", str(xmi_file)])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid_model(self, tmp_path, capsys):
        from repro.uml.activity import ActivityGraph

        model = UmlModel(name="bad")
        g = ActivityGraph("broken")
        g.add_action("a")  # no initial node
        model.add_activity_graph(g)
        path = tmp_path / "bad.xmi"
        path.write_text(write_model(model))
        code = main(["validate", str(path)])
        assert code == 1
        assert "initial" in capsys.readouterr().out


class TestResilienceFlags:
    def test_pepa_solver_policy_verbose_prints_attempts(self, pepa_file, capsys):
        code = main(["pepa", str(pepa_file),
                     "--solver", "direct,jacobi", "--verbose"])
        out = capsys.readouterr().out
        assert code == 0
        assert "solved by direct" in out
        assert "converged" in out  # the SolveDiagnostics attempt table

    def test_pepa_without_verbose_hides_attempts(self, pepa_file, capsys):
        code = main(["pepa", str(pepa_file), "--solver", "direct,jacobi"])
        out = capsys.readouterr().out
        assert code == 0
        assert "converged" not in out

    def test_net_solver_policy(self, net_file, capsys):
        code = main(["net", str(net_file), "--solver", "direct,gmres", "-v"])
        out = capsys.readouterr().out
        assert code == 0
        assert "solved by direct" in out

    def test_bad_policy_is_cli_error(self, pepa_file, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["pepa", str(pepa_file), "--solver", "direct,quantum"])
        assert exit_info.value.code == 2
        assert "unknown steady-state method" in capsys.readouterr().err

    def test_analyse_no_strict_degrades(self, tmp_path, capsys):
        from repro.uml.activity import ActivityGraph
        from repro.workloads import build_instant_message_diagram

        model = UmlModel(name="project")
        model.add_activity_graph(build_instant_message_diagram())
        poisoned = ActivityGraph("poisoned")
        poisoned.add_action("orphan")  # no initial node: extraction fails
        model.add_activity_graph(poisoned)
        path = tmp_path / "mixed.xmi"
        path.write_text(add_synthetic_layout(write_model(model)))

        code = main(["analyse", str(path), "--no-strict"])
        captured = capsys.readouterr()
        assert code == 3  # degraded, not crashed
        assert "transmit" in captured.out  # the good diagram analysed
        assert "poisoned" in captured.err  # the report names the bad one

    def test_analyse_strict_default_fails(self, tmp_path, capsys):
        from repro.uml.activity import ActivityGraph

        model = UmlModel(name="project")
        poisoned = ActivityGraph("poisoned")
        poisoned.add_action("orphan")
        model.add_activity_graph(poisoned)
        path = tmp_path / "bad.xmi"
        path.write_text(add_synthetic_layout(write_model(model)))

        code = main(["analyse", str(path)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_deadline_flag_maps_budget_error_to_exit_2(self, pepa_file, capsys):
        code = main(["pepa", str(pepa_file), "--deadline", "0.0"])
        assert code == 2
        assert "budget" in capsys.readouterr().err


@pytest.fixture()
def pda_xmi_file(tmp_path):
    from repro.workloads import build_pda_activity_diagram

    model = UmlModel(name="pda")
    model.add_activity_graph(build_pda_activity_diagram())
    path = tmp_path / "pda.xmi"
    path.write_text(add_synthetic_layout(write_model(model)))
    return path


def _golden_run(ledger_dir, name: str) -> str:
    """Record a run document around one of the golden PDA traces."""
    trace = json.loads((GOLDENS / f"trace_pda_{name}.json").read_text())
    return RunLedger(ledger_dir).record(build_run_document(
        command="analyse", config={"command": "analyse"}, trace=trace))


#: What ``runs explain`` prints first for the golden base trace: the
#: critical path, then the per-span table heaviest first.
GOLDEN_BASE_EXPLAINED = """\
critical path (heaviest chain):
  diagram.activity  3.245 ms (self 0.013 ms, 100.0%)
    solve  2.370 ms (self 0.175 ms, 73.0%)
      ctmc.assemble  1.047 ms (self 1.047 ms, 32.3%)

span                  count  total ms  mean ms  p95 ms  max ms
--------------------  -----  --------  -------  ------  ------
diagram.activity          1  3.245     3.245    3.245   3.245
solve                     1  2.370     2.370    2.370   2.370
pipeline.write            1  1.253     1.253    1.253   1.253
ctmc.assemble             1  1.047     1.047    1.047   1.047
ctmc.solve                1  0.796     0.796    0.796   0.796
extract                   1  0.727     0.727    0.727   0.727
pipeline.read             1  0.669     0.669    0.669   0.669
pepanet.markingspace      1  0.352     0.352    0.352   0.352
reflect                   1  0.134     0.134    0.134   0.134
"""


class TestTraceTools:
    """``runs explain`` and ``runs compare`` over run documents built
    from the golden PDA traces."""

    def test_explain_prints_critical_path_for_golden(self, tmp_path, capsys):
        ledger = tmp_path / "runs"
        _golden_run(ledger, "base")
        code = main(["runs", "--ledger", str(ledger), "explain"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith(GOLDEN_BASE_EXPLAINED)
        # the metrics table follows the span profile
        assert out[len(GOLDEN_BASE_EXPLAINED):] == "\n(no metrics recorded)\n"

    def test_compare_names_the_mover(self, tmp_path, capsys):
        ledger = tmp_path / "runs"
        base, slow = _golden_run(ledger, "base"), _golden_run(ledger, "slow")
        code = main(["runs", "--ledger", str(ledger), "compare", base, slow,
                     "--min-seconds", "0"])
        out = capsys.readouterr().out
        assert code == 1
        assert "ctmc.solve" in out
        assert "2.00x" in out

    def test_explain_rejects_document_without_trace(self, tmp_path, capsys):
        ledger = tmp_path / "runs"
        RunLedger(ledger).record(build_run_document(command="analyse"))
        code = main(["runs", "--ledger", str(ledger), "explain"])
        assert code == 2
        assert "embeds no trace" in capsys.readouterr().err

    def test_explain_does_not_clobber_the_document(self, tmp_path, capsys):
        ledger = tmp_path / "runs"
        run_id = _golden_run(ledger, "base")
        path = ledger / f"run-{run_id}.json"
        before = path.read_bytes()
        assert main(["runs", "--ledger", str(ledger), "explain", run_id]) == 0
        assert path.read_bytes() == before


def _recorded(ledger_dir) -> dict:
    """The newest run document of a ledger."""
    return RunLedger(ledger_dir).latest()


class TestEventsFlag:
    """Solver and exploration events a ``--ledger`` run records land in
    its document's ``events.records``."""

    def test_events_file_written_with_convergence_stream(
        self, pepa_file, tmp_path, capsys
    ):
        ledger = tmp_path / "runs"
        code = main(["pepa", str(pepa_file), "--solver", "jacobi",
                     "--ledger", str(ledger)])
        assert code == 0
        assert "recorded in ledger" in capsys.readouterr().err
        events = _recorded(ledger)["events"]
        assert events["count"] == len(events["records"])
        assert events["dropped"] == 0
        convergence = [e for e in events["records"]
                       if e["event"] == "solver.convergence"]
        assert convergence
        assert events["by_name"]["solver.convergence"] == len(convergence)
        assert all(e["solver"] == "jacobi" for e in convergence)

    @pytest.mark.parametrize("solver", ["gmres", "jacobi"])
    def test_every_iterative_solver_visible_on_pda_workload(
        self, pda_xmi_file, tmp_path, solver, capsys
    ):
        # the acceptance scenario: the full PDA pipeline, one iterative
        # solver at a time, each leaving >= 1 convergence event behind
        ledger = tmp_path / "runs"
        code = main(["analyse", str(pda_xmi_file), "--solver", solver,
                     "--ledger", str(ledger)])
        assert code == 0
        events = _recorded(ledger)["events"]["records"]
        convergence = [e for e in events
                       if e["event"] == "solver.convergence"
                       and e["solver"] == solver]
        assert convergence, f"{solver} left no convergence events"
        for event in convergence:
            assert event["iteration"] >= 0
            assert event["residual"] >= 0.0

    def test_events_flag_leaves_ambient_stream_disabled(
        self, pepa_file, tmp_path
    ):
        from repro.obs import NULL_EVENTS, get_events

        main(["pepa", str(pepa_file), "--solver", "jacobi",
              "--ledger", str(tmp_path / "runs")])
        assert get_events() is NULL_EVENTS


class TestObservedRunRoot:
    @pytest.mark.parametrize("command, model, stages", [
        ("pepa", "file_protocol.pepa",
         ["pepa.parse", "pepa.statespace", "ctmc.assemble", "ctmc.solve"]),
        # The place table reads the occupied-cell matrix: nothing renders.
        ("net", "instant_message.pepanet",
         ["pepanet.parse", "pepanet.markingspace", "ctmc.assemble", "ctmc.solve"]),
        ("analyse", "pda_project.xmi",
         ["pipeline.read", "diagram.activity", "diagram.statecharts",
          "pipeline.write"]),
    ])
    def test_one_root_whose_children_are_the_stage_spans(
        self, command, model, stages, tmp_path, capsys
    ):
        ledger = tmp_path / "runs"
        code = main([command, str(EXAMPLE_MODELS / model),
                     "--ledger", str(ledger)])
        assert code == 0
        (root,) = _recorded(ledger)["trace"]["traces"]
        assert root["name"] == f"cli.{command}"
        assert [child["name"] for child in root["children"]] == stages

    def test_root_is_a_ledger_series(self, tmp_path, capsys):
        ledger_dir = tmp_path / "runs"
        code = main(["pepa", str(EXAMPLE_MODELS / "file_protocol.pepa"),
                     "--ledger", str(ledger_dir)])
        assert code == 0
        spans = _recorded(ledger_dir)["spans"]
        assert spans["cli.pepa"]["count"] == 1
        assert spans["cli.pepa"]["total_s"] >= spans["ctmc.solve"]["total_s"]

    def test_failed_run_still_writes_one_root(self, tmp_path, capsys):
        bad = tmp_path / "bad.pepa"
        bad.write_text("this is not PEPA ;;;")
        ledger = tmp_path / "runs"
        assert main(["pepa", str(bad), "--ledger", str(ledger)]) == 2
        (root,) = _recorded(ledger)["trace"]["traces"]
        assert root["name"] == "cli.pepa"
        assert "error" in root["attributes"]
