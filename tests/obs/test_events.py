"""Event streams: bounded buffer, the run document's event records,
and the per-iteration convergence / exploration instrumentation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ctmc.steady import steady_state
from repro.ctmc.transient import transient_distribution
from repro.obs import (
    NULL_EVENTS,
    EventStream,
    NullEventStream,
    ObsContext,
    RunLedger,
    build_run_document,
    get_events,
    use_obs,
)
from repro.pepa.ctmcgen import ctmc_from_statespace
from repro.pepa.parser import parse_model
from repro.pepa.statespace import derive
from repro.pepanets.measures import ctmc_of_net
from repro.pepanets.parser import parse_net

ITERATIVE_SOLVERS = ["gmres", "jacobi"]


class TestEventStream:
    def test_emit_and_query(self):
        stream = EventStream()
        stream.emit("a", x=1)
        stream.emit("b", y=2.5)
        stream.emit("a", x=3)
        assert len(stream) == 3
        assert [e.fields["x"] for e in stream.by_name("a")] == [1, 3]
        assert stream.names() == ["a", "b"]
        assert stream.dropped == 0

    def test_timestamps_are_monotonic_from_stream_epoch(self):
        stream = EventStream()
        for i in range(5):
            stream.emit("tick", i=i)
        times = [e.t for e in stream]
        assert all(t >= 0 for t in times)
        assert times == sorted(times)

    def test_bounded_buffer_evicts_oldest_and_counts(self):
        stream = EventStream(capacity=4)
        for i in range(7):
            stream.emit("e", i=i)
        assert len(stream) == 4
        assert stream.dropped == 3
        # the tail survives, the head is gone
        assert [e.fields["i"] for e in stream] == [3, 4, 5, 6]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventStream(capacity=0)

    def test_null_stream_swallows_everything(self):
        NULL_EVENTS.emit("anything", x=1)
        assert len(NULL_EVENTS) == 0
        assert NULL_EVENTS.by_name("anything") == []
        assert NULL_EVENTS.to_dicts() == []
        assert list(NULL_EVENTS) == []

    def test_clear_resets_buffer_and_dropped(self):
        stream = EventStream(capacity=2)
        for i in range(5):
            stream.emit("e", i=i)
        stream.clear()
        assert len(stream) == 0
        assert stream.dropped == 0

    def test_to_dicts_is_flat_and_json_ready(self):
        import json

        stream = EventStream()
        stream.emit("solver.convergence", solver="gmres", iteration=1,
                    residual=1e-9)
        (record,) = stream.to_dicts()
        assert record["event"] == "solver.convergence"
        assert record["solver"] == "gmres"
        assert record["iteration"] == 1
        assert record["t_s"] >= 0
        assert json.dumps(record)


class TestAmbientInstall:
    """The events field of the installed :class:`ObsContext`."""

    def test_default_is_shared_null_stream(self):
        assert get_events() is NULL_EVENTS
        assert isinstance(get_events(), NullEventStream)
        assert get_events().enabled is False

    def test_use_events_installs_and_restores(self):
        stream = EventStream()
        with use_obs(ObsContext(events=stream)):
            assert get_events() is stream
            assert get_events().enabled is True
        assert get_events() is NULL_EVENTS

    def test_use_events_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with use_obs(ObsContext(events=EventStream())):
                raise RuntimeError("boom")
        assert get_events() is NULL_EVENTS


def _recorded(tmp_path, stream):
    """A stream's records and evictions, through a ledger round-trip."""
    ledger = RunLedger(tmp_path / "runs")
    run_id = ledger.record(build_run_document(
        command="x", events=stream.to_dicts(), events_dropped=stream.dropped))
    return ledger.load(run_id)["events"]


class TestJsonl:
    """A run document keeps the stream as flat ``events.records``."""

    def test_round_trip(self, tmp_path):
        stream = EventStream()
        stream.emit("a", x=1, label="first")
        stream.emit("b", y=2.25)
        events = _recorded(tmp_path, stream)
        assert {k: events[k] for k in ("count", "dropped", "by_name")} == {
            "count": 2, "dropped": 0, "by_name": {"a": 1, "b": 1}}
        records = events["records"]
        assert [e["event"] for e in records] == ["a", "b"]
        assert records[0]["x"] == 1 and records[0]["label"] == "first"
        assert records[1]["y"] == 2.25

    def test_header_records_evictions(self, tmp_path):
        stream = EventStream(capacity=2)
        for i in range(5):
            stream.emit("e", i=i)
        events = _recorded(tmp_path, stream)
        assert events["dropped"] == 3
        assert [e["i"] for e in events["records"]] == [3, 4]

    def test_read_rejects_non_event_files(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        (tmp_path / "runs" / "run-000001.json").write_text(
            '{"schema": "other/1"}\n')
        with pytest.raises(ValueError):
            ledger.load("1")


@pytest.fixture
def ergodic_chain(file_model):
    return ctmc_from_statespace(derive(file_model))


class TestSolverConvergenceEvents:
    @pytest.mark.parametrize("method", ITERATIVE_SOLVERS)
    def test_every_iterative_solver_emits_convergence_events(
        self, ergodic_chain, method
    ):
        stream = EventStream()
        with use_obs(ObsContext(events=stream)):
            steady_state(ergodic_chain, method=method, tol=1e-10)
        events = stream.by_name("solver.convergence")
        assert events, f"{method} emitted no convergence events"
        for event in events:
            assert event.fields["solver"] == method
            assert event.fields["iteration"] >= 0
            assert event.fields["residual"] >= 0.0
            assert event.fields["elapsed_s"] >= 0.0
        iterations = [e.fields["iteration"] for e in events]
        assert iterations == sorted(iterations)

    def test_stationary_iteration_residuals_decrease_overall(self, ergodic_chain):
        stream = EventStream()
        with use_obs(ObsContext(events=stream)):
            steady_state(ergodic_chain, method="jacobi", tol=1e-10)
        residuals = [e.fields["residual"]
                     for e in stream.by_name("solver.convergence")]
        assert len(residuals) >= 2
        assert residuals[-1] < residuals[0]
        assert residuals[-1] < 1e-10

    def test_direct_solver_emits_no_convergence_events(self, ergodic_chain):
        stream = EventStream()
        with use_obs(ObsContext(events=stream)):
            steady_state(ergodic_chain, method="direct")
        assert stream.by_name("solver.convergence") == []

    def test_disabled_by_default_costs_nothing(self, ergodic_chain):
        steady_state(ergodic_chain, method="jacobi", tol=1e-10)
        assert len(get_events()) == 0


class TestUniformizationEvents:
    def test_steps_are_recorded_with_accumulating_mass(self, ergodic_chain):
        stream = EventStream()
        with use_obs(ObsContext(events=stream)):
            transient_distribution(ergodic_chain, 0.5)
        steps = stream.by_name("uniformization.step")
        assert steps
        ks = [e.fields["step"] for e in steps]
        assert ks == list(range(1, len(ks) + 1))
        masses = [e.fields["accumulated_mass"] for e in steps]
        assert masses == sorted(masses)
        assert masses[-1] == pytest.approx(1.0, abs=1e-9)
        assert all(e.fields["of"] == ks[-1] for e in steps)


class TestExplorationProgressEvents:
    def test_pepa_derivation_emits_progress(self, file_model, monkeypatch):
        from repro.core import explore

        monkeypatch.setattr(explore, "PROGRESS_INTERVAL", 2)
        stream = EventStream()
        with use_obs(ObsContext(events=stream)):
            space = derive(file_model)
        progress = stream.by_name("explore.progress")
        assert progress
        final = progress[-1]
        assert final.fields["stage"] == "pepa.statespace"
        assert final.fields["explored"] == space.size
        assert final.fields["frontier"] == 0
        assert final.fields["states_per_sec"] is None or \
            final.fields["states_per_sec"] > 0

    def test_net_exploration_emits_progress(self, monkeypatch):
        from repro.core import explore

        monkeypatch.setattr(explore, "PROGRESS_INTERVAL", 2)
        net = parse_net(
            """
            Tok = (go, 1.0).Tok;
            A[Tok] = Tok[_];
            B[_] = Tok[_];
            ab = (go, 1.0) : A -> B;
            ba = (go, 1.0) : B -> A;
            """
        )
        stream = EventStream()
        with use_obs(ObsContext(events=stream)):
            space, _chain = ctmc_of_net(net)
        progress = stream.by_name("explore.progress")
        assert progress
        assert progress[-1].fields["stage"] == "pepanet.markingspace"
        assert progress[-1].fields["explored"] == space.size
