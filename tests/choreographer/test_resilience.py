"""End-to-end resilience: graceful pipeline degradation and the
fallback solver wired through the Choreographer platform."""

import math

import pytest

from repro.choreographer import Choreographer, PipelineReport, PipelineResult
from repro.exceptions import ReproError, SolverError
from repro.resilience import FallbackPolicy, FaultSpec, inject_fault
from repro.resilience.budget import ExecutionBudget
from repro.uml.activity import ActivityGraph
from repro.uml.model import UmlModel
from repro.uml.xmi import add_synthetic_layout, write_model
from repro.workloads import (
    IM_RATES,
    PDA_RATES,
    build_instant_message_diagram,
    build_pda_activity_diagram,
)


def build_poisoned_graph() -> ActivityGraph:
    """An activity diagram with no initial node: extraction must fail."""
    bad = ActivityGraph("poisoned")
    bad.add_action("orphan")
    return bad


def two_diagram_document() -> str:
    """One good diagram (instant message) + one poisoned diagram."""
    model = UmlModel(name="project")
    model.add_activity_graph(build_instant_message_diagram())
    model.add_activity_graph(build_poisoned_graph())
    return add_synthetic_layout(write_model(model))


class TestGracefulDegradation:
    def test_non_strict_returns_partial_outcomes_and_report(self):
        """Acceptance: a two-diagram document with one poisoned diagram
        yields one successful outcome plus a PipelineReport entry naming
        the failed diagram and stage."""
        result = Choreographer().process_xmi(
            two_diagram_document(), IM_RATES, strict=False
        )
        assert isinstance(result, PipelineResult)
        assert len(result.activity_outcomes) == 1
        assert result.activity_outcomes[0].graph.name == "instant-message"
        assert result.activity_outcomes[0].throughput_of("transmit") > 0
        assert not result.report.ok
        [failure] = result.report.failures
        assert failure.diagram == "poisoned"
        assert failure.stage == "extract"
        assert isinstance(failure.error, ReproError)
        assert "poisoned" in result.report.summary()

    def test_strict_mode_fails_fast(self):
        with pytest.raises(ReproError):
            Choreographer().process_xmi(
                two_diagram_document(), IM_RATES, strict=True
            )

    def test_platform_level_strict_default(self):
        platform = Choreographer(strict=False)
        result = platform.process_xmi(two_diagram_document(), IM_RATES)
        assert len(result.activity_outcomes) == 1
        assert not result.report.ok

    def test_legacy_tuple_unpacking_still_works(self):
        document, activity, statechart = Choreographer().process_xmi(
            two_diagram_document(), IM_RATES, strict=False
        )
        assert "xmi" in document.lower()
        assert len(activity) == 1
        assert statechart == []

    def test_reflected_document_still_written_for_good_diagram(self):
        result = Choreographer().process_xmi(
            two_diagram_document(), IM_RATES, strict=False
        )
        assert "throughput" in result.document

    def test_solve_stage_failure_is_attributed(self):
        """Every solver method forced down: the report must blame the
        solve stage, and the exception context names the diagram."""
        model = UmlModel(name="project")
        model.add_activity_graph(build_instant_message_diagram())
        document = add_synthetic_layout(write_model(model))
        platform = Choreographer()
        with inject_fault("direct", FaultSpec.first_n("converge", 50)), \
                inject_fault("gmres", FaultSpec.first_n("converge", 50)), \
                inject_fault("jacobi", FaultSpec.first_n("converge", 50)):
            result = platform.process_xmi(document, IM_RATES, strict=False)
        assert result.activity_outcomes == []
        [failure] = result.report.failures
        assert failure.stage == "solve"
        assert failure.diagram == "instant-message"
        assert failure.error.context["stage"] == "solve"
        assert failure.error.context["diagram"] == "instant-message"

    def test_empty_report_is_ok(self):
        report = PipelineReport()
        assert report.ok
        assert report.summary() == "all diagrams analysed"


class TestFallbackThroughPlatform:
    def test_solver_policy_rides_through_with_diagnostics(self):
        """direct is poisoned; the platform-level fallback policy must
        still produce the unfaulted throughputs, and the diagnostics on
        the analysis object must show the failed direct attempt."""
        model = UmlModel(name="project")
        model.add_activity_graph(build_instant_message_diagram())
        document = add_synthetic_layout(write_model(model))

        baseline = Choreographer().process_xmi(document, IM_RATES)
        expected = baseline.activity_outcomes[0].throughput_of("transmit")

        platform = Choreographer(solver="direct,gmres,jacobi")
        with inject_fault("direct", FaultSpec.first_n("converge", 50)):
            result = platform.process_xmi(document, IM_RATES)
        outcome = result.activity_outcomes[0]
        assert math.isclose(
            outcome.throughput_of("transmit"), expected, rel_tol=1e-8
        )
        diag = outcome.analysis.diagnostics
        assert diag is not None
        assert diag.method != "direct"
        assert any(a.outcome == "failed" for a in diag.attempts)

    def test_policy_string_parsed_by_constructor(self):
        platform = Choreographer(solver="jacobi,direct")
        assert isinstance(platform.solver, FallbackPolicy)
        assert platform.solver.methods == ("jacobi", "direct")

    def test_deadline_zero_turns_into_budget_error(self):
        platform = Choreographer(budget=ExecutionBudget.of(deadline_seconds=0.0))
        model = UmlModel(name="project")
        model.add_activity_graph(build_instant_message_diagram())
        document = add_synthetic_layout(write_model(model))
        result = platform.process_xmi(document, IM_RATES, strict=False)
        assert result.activity_outcomes == []
        [failure] = result.report.failures
        assert failure.stage == "solve"
        assert "budget" in str(failure.error) or "deadline" in str(failure.error)


class CountingBudget(ExecutionBudget):
    """A budget that never expires and records every checkpoint."""

    def __init__(self):
        super().__init__(math.inf)
        self.stages: list[str] = []

    def checkpoint(self, *, stage: str, explored: int, frontier: int = 0) -> None:
        self.stages.append(stage)
        super().checkpoint(stage=stage, explored=explored, frontier=frontier)


class TestOneClockPerDocument:
    def test_two_diagrams_charge_one_budget(self):
        model = UmlModel(name="project")
        model.add_activity_graph(build_instant_message_diagram())
        model.add_activity_graph(build_pda_activity_diagram())
        document = add_synthetic_layout(write_model(model))
        budget = CountingBudget()
        platform = Choreographer(budget=budget)
        assert platform.net_workbench.budget is budget
        assert platform.pepa_workbench.budget is budget

        result = platform.process_xmi(document, {**IM_RATES, **PDA_RATES})
        first, second = result.activity_outcomes
        # the net search checkpoints once per expanded marking, so the
        # one clock saw every marking of both diagrams
        assert len(budget.stages) >= first.analysis.n_states + second.analysis.n_states
