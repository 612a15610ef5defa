"""The one observability context: default off, scoped install that
restores on exit and on error, nesting, whole-context replacement,
``reset_ambient``, and library code routing to whatever is installed."""

from __future__ import annotations

import dataclasses

import pytest

from repro.obs import (
    NULL_EVENTS,
    NULL_METRICS,
    NULL_TRACER,
    EventStream,
    MetricsRegistry,
    ObsContext,
    Tracer,
    get_events,
    get_metrics,
    get_tracer,
    observe,
    reset_ambient,
    use_obs,
)
from repro.pepa.parser import parse_model

TWO_STATE = "P = (a, 1.0).Q;\nQ = (b, 2.0).P;\nP"


def live_context() -> ObsContext:
    return ObsContext(Tracer(), MetricsRegistry(), EventStream())


def assert_off() -> None:
    assert get_tracer() is NULL_TRACER
    assert get_metrics() is NULL_METRICS
    assert get_events() is NULL_EVENTS


def assert_installed(context: ObsContext) -> None:
    assert get_tracer() is context.tracer
    assert get_metrics() is context.metrics
    assert get_events() is context.events


class TestObsContext:
    def test_exactly_three_fields_defaulting_to_off(self):
        names = [f.name for f in dataclasses.fields(ObsContext)]
        assert names == ["tracer", "metrics", "events"]
        context = ObsContext()
        assert context.tracer is NULL_TRACER
        assert context.metrics is NULL_METRICS
        assert context.events is NULL_EVENTS

    def test_is_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ObsContext().tracer = Tracer()


class TestDefault:
    def test_default_is_off(self):
        assert_off()
        assert get_tracer().enabled is False
        assert get_events().enabled is False

    def test_library_code_records_nothing_when_off(self):
        parse_model("P = (a, 1.0).P;\nP")
        assert NULL_TRACER.roots == []
        assert len(NULL_METRICS) == 0
        assert NULL_METRICS.as_dict() == {"schema": "repro-metrics/1", "metrics": {}}
        assert len(NULL_EVENTS) == 0


class TestInstall:
    def test_previous_context_restored_on_exit(self):
        context = live_context()
        with use_obs(context) as installed:
            assert installed is context
            assert_installed(context)
        assert_off()

    def test_previous_context_restored_on_error(self):
        with pytest.raises(ValueError):
            with use_obs(live_context()):
                raise ValueError("boom")
        assert_off()

    def test_nesting(self):
        outer, inner = live_context(), live_context()
        with use_obs(outer):
            with use_obs(inner):
                assert_installed(inner)
            assert_installed(outer)
        assert_off()

    def test_unpassed_field_is_off(self):
        outer = live_context()
        tracer = Tracer()
        with use_obs(outer):
            with use_obs(ObsContext(tracer=tracer)):
                assert get_tracer() is tracer
                assert get_metrics() is NULL_METRICS
                assert get_events() is NULL_EVENTS

    def test_observe_installs_tracer_and_metrics_only(self):
        with use_obs(live_context()):
            with observe() as (tracer, metrics):
                assert get_tracer() is tracer
                assert get_metrics() is metrics
                assert get_events() is NULL_EVENTS
            assert get_tracer() is not tracer


class TestReset:
    def test_reset_ambient_turns_everything_off(self):
        # a live context installed by the caller, as a forked worker
        # inherits it from its parent
        with use_obs(live_context()):
            reset_ambient()
            assert_off()
        assert_off()


class TestLibraryRouting:
    def test_spans_route_to_installed_tracer(self):
        context = live_context()
        with use_obs(context):
            parse_model("P = (a, 1.0).P;\nP")
        assert [r.name for r in context.tracer.roots] == ["pepa.parse"]
        assert context.tracer.roots[0].attributes["components"] == 1

    def test_statespace_records_counters(self):
        from repro.pepa.statespace import derive

        model = parse_model(TWO_STATE)
        context = live_context()
        with use_obs(context):
            space = derive(model)
        assert context.metrics.counter("states_explored").value == space.size == 2
        assert context.metrics.counter("transitions").value == len(space.arcs) == 2

    def test_solver_records_iterations(self):
        from repro.pepa.measures import analyse

        context = live_context()
        with use_obs(context):
            analyse(parse_model(TWO_STATE), solver="power")
        assert context.metrics.counter("solver_iterations").value > 0
        assert context.metrics.counter("spmv_count").value > 0
        assert context.events.by_name("solver.convergence")
