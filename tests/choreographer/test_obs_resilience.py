"""Fault injection × non-strict pipeline × observability, end to end.

The scenario the observability layer exists for: a solver dies in the
middle of a Choreographer run.  These tests inject faults into the
live registry, run the full XMI pipeline non-strict under an installed
tracer + metrics registry, and assert that

* the pipeline degrades exactly as the resilience contract promises
  (fallback absorbs transient faults; exhausted chains land in the
  :class:`PipelineReport`), and
* the collected trace and metrics still tell the true story — and still
  serialise to JSON — whichever way the run ended.
"""

from __future__ import annotations

import json

import pytest

from repro.choreographer import Choreographer
from repro.obs import observe, render_trace
from repro.resilience import FallbackPolicy, FaultSpec, inject_fault
from repro.uml.model import UmlModel
from repro.uml.xmi import add_synthetic_layout, write_model
from repro.workloads import IM_RATES, build_instant_message_diagram


def one_diagram_document() -> str:
    model = UmlModel(name="project")
    model.add_activity_graph(build_instant_message_diagram())
    return add_synthetic_layout(write_model(model))


def all_spans(tracer):
    return [s for root in tracer.roots for s in root.iter_spans()]


class TestFallbackAbsorbsInjectedFault:
    def test_primary_solver_fault_degrades_to_secondary(self):
        platform = Choreographer(
            solver=FallbackPolicy(methods=("direct", "gmres")),
            strict=False,
        )
        with observe() as (tracer, metrics):
            with inject_fault("direct", FaultSpec.first_n("converge", 50)):
                result = platform.process_xmi(one_diagram_document(), IM_RATES)

        # The pipeline succeeded — degradation was absorbed, not reported.
        assert result.report.ok
        [outcome] = result.activity_outcomes
        assert outcome.analysis.diagnostics.method == "gmres"
        assert outcome.throughput_of("transmit") > 0

        # The trace names the diagram, the failed attempt and the rescuer.
        fallback_span = next(
            s for s in all_spans(tracer) if s.name == "ctmc.solve"
        )
        assert fallback_span.attributes["solved_by"] == "gmres"
        assert fallback_span.attributes["methods"] == "direct,gmres"
        assert fallback_span.attributes["attempts"] == 2
        assert fallback_span.attributes["residual"] < 1e-6
        attempts = [s for s in all_spans(tracer) if s.name == "solve.attempt"]
        outcomes = [(s.attributes["method"], s.attributes["outcome"]) for s in attempts]
        assert ("direct", "failed") in outcomes
        assert ("gmres", "converged") in outcomes

        # Metrics survived the bumpy ride.
        assert metrics.counter("states_explored").value > 0
        assert metrics.gauge("residual").value < 1e-6

        # Both documents serialise.
        json.dumps(tracer.to_dict())
        json.dumps(metrics.as_dict())


class TestExhaustedChainIsReportedNotFatal:
    @pytest.fixture
    def broken_platform(self):
        return Choreographer(
            solver=FallbackPolicy(methods=("direct",)),
            strict=False,
        )

    def test_pipeline_report_records_solve_degradation(self, broken_platform):
        with observe() as (tracer, metrics):
            with inject_fault("direct", FaultSpec.first_n("converge", 50)):
                result = broken_platform.process_xmi(one_diagram_document(), IM_RATES)

        assert not result.report.ok
        [failure] = result.report.failures
        assert failure.stage == "solve"
        assert failure.diagram == "instant-message"
        assert failure.diagnostics is not None
        assert failure.diagnostics.method is None  # nothing converged
        assert [a.outcome for a in failure.diagnostics.attempts] == ["failed"]
        assert result.activity_outcomes == []

        # The failing diagram span is closed, error-tagged, stage-tagged.
        diagram_span = next(
            s for s in all_spans(tracer) if s.name == "diagram.activity"
        )
        assert diagram_span.closed
        assert diagram_span.attributes["failed_stage"] == "solve"
        assert diagram_span.attributes["error"] == "SolverError"
        fallback_span = next(
            s for s in all_spans(tracer) if s.name == "ctmc.solve"
        )
        assert fallback_span.attributes["solved_by"] == "none"

        # Trace and metrics of the failed run still serialise and render.
        json.dumps(tracer.to_dict())
        json.dumps(metrics.as_dict())
        assert "diagram.activity" in render_trace(tracer)
        # Derivation happened before the solve died, so its counters exist.
        assert metrics.counter("states_explored").value > 0

    def test_nan_fault_is_also_degradation(self, broken_platform):
        with observe() as (tracer, metrics):
            with inject_fault("direct", FaultSpec.first_n("nan", 50)):
                result = broken_platform.process_xmi(one_diagram_document(), IM_RATES)
        assert not result.report.ok
        assert result.report.failures[0].stage == "solve"
        json.dumps(tracer.to_dict())
        json.dumps(metrics.as_dict())

    def test_strict_mode_still_raises_but_trace_survives(self, broken_platform):
        from repro.exceptions import SolverError

        with observe() as (tracer, metrics):
            with inject_fault("direct", FaultSpec.first_n("converge", 50)):
                with pytest.raises(SolverError):
                    broken_platform.process_xmi(
                        one_diagram_document(), IM_RATES, strict=True
                    )
        # Even a fail-fast run leaves a coherent, serialisable trace:
        # every span was closed on the way out of the raise.
        assert all(s.closed for s in all_spans(tracer))
        json.dumps(tracer.to_dict())
        json.dumps(metrics.as_dict())


class TestRegistryRestoration:
    def test_injector_never_leaks_into_later_runs(self):
        platform = Choreographer(strict=False)
        with inject_fault("direct", FaultSpec.first_n("converge", 50)):
            pass  # enter/exit only
        result = platform.process_xmi(one_diagram_document(), IM_RATES)
        assert result.report.ok
        assert len(result.activity_outcomes) == 1
