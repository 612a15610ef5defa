"""Integration tests for the Choreographer platform (Figure 4 pipeline)."""

import math

import pytest

from repro.choreographer import Choreographer, PepaNetWorkbench, PepaWorkbench
from repro.uml.model import TAG_PROBABILITY, TAG_THROUGHPUT
from repro.uml.xmi import add_synthetic_layout, extract_layout, read_model, write_model
from repro.uml.model import UmlModel
from repro.workloads import (
    FILE_RATES,
    IM_RATES,
    PDA_RATES,
    build_client_statechart,
    build_file_activity_diagram,
    build_instant_message_diagram,
    build_pda_activity_diagram,
    build_server_statechart,
)


@pytest.fixture(scope="module")
def platform():
    return Choreographer()


class TestActivityAnalysis:
    def test_pda_outcome_shape(self, platform):
        outcome = platform.analyse_activity_diagram(build_pda_activity_diagram(), PDA_RATES)
        assert set(outcome.extraction.net.places) == {"transmitter_1", "transmitter_2"}
        assert outcome.analysis.n_states == 6
        assert outcome.throughput_of("handover") > 0

    def test_handover_outcomes_equiprobable(self, platform):
        """Paper: 'it is as likely that the connection will be dropped
        as it is that it will survive'."""
        outcome = platform.analyse_activity_diagram(build_pda_activity_diagram(), PDA_RATES)
        assert math.isclose(
            outcome.throughput_of("abort download"),
            outcome.throughput_of("continue download"),
            rel_tol=1e-9,
        )

    def test_all_pre_handover_activities_have_equal_throughput(self, platform):
        outcome = platform.analyse_activity_diagram(build_pda_activity_diagram(), PDA_RATES)
        values = [
            outcome.throughput_of(name)
            for name in ("download file", "detect weak signal",
                         "search for other transmitters", "handover")
        ]
        for v in values[1:]:
            assert math.isclose(v, values[0], rel_tol=1e-9)

    def test_diagram_is_annotated(self, platform):
        graph = build_pda_activity_diagram()
        platform.analyse_activity_diagram(graph, PDA_RATES)
        for action in graph.actions():
            assert action.tag(TAG_THROUGHPUT) is not None

    def test_report_renders(self, platform):
        outcome = platform.analyse_activity_diagram(build_pda_activity_diagram(), PDA_RATES)
        text = outcome.report()
        assert "handover" in text
        assert "<<move>>" in text
        assert "transmitter_1" in text


class TestStatechartAnalysis:
    def test_client_server_probabilities(self, platform):
        outcome = platform.analyse_state_diagrams(
            [build_client_statechart(), build_server_statechart()]
        )
        p_wait = outcome.probability_of("Client", "WaitForResponse")
        p_idle = outcome.probability_of("Server", "ServerIdle")
        assert 0 < p_wait < 1 and 0 < p_idle < 1
        # uncached: translation dominates, so the client mostly waits
        assert p_wait > 0.5

    def test_states_annotated(self, platform):
        client = build_client_statechart()
        server = build_server_statechart()
        platform.analyse_state_diagrams([client, server])
        for machine in (client, server):
            for state in machine.simple_states():
                assert state.tag(TAG_PROBABILITY) is not None

    def test_report_renders(self, platform):
        outcome = platform.analyse_state_diagrams(
            [build_client_statechart(), build_server_statechart()]
        )
        text = outcome.report()
        assert "WaitForResponse" in text
        assert "probability" in text


class TestXmiPipeline:
    def build_poseidon_project(self) -> tuple[str, UmlModel]:
        model = UmlModel(name="project")
        model.add_activity_graph(build_instant_message_diagram())
        model.add_state_machine(build_client_statechart())
        model.add_state_machine(build_server_statechart())
        return add_synthetic_layout(write_model(model)), model

    def test_full_pipeline(self, platform):
        poseidon, _ = self.build_poseidon_project()
        reflected, activity_outcomes, statechart_outcomes = platform.process_xmi(
            poseidon, IM_RATES
        )
        assert len(activity_outcomes) == 1
        assert len(statechart_outcomes) == 1
        # the reflected document carries the results as tagged values
        restored = read_model(
            __import__("repro.uml.xmi.poseidon", fromlist=["preprocess"]).preprocess(reflected)
        )
        graph = restored.activity_graph("instant-message")
        assert graph.action_by_name("transmit").tag(TAG_THROUGHPUT) is not None
        sm = restored.state_machine("Client")
        assert sm.state_by_name("WaitForResponse").tag(TAG_PROBABILITY) is not None

    def test_layout_survives_round_trip(self, platform):
        poseidon, model = self.build_poseidon_project()
        reflected, _, _ = platform.process_xmi(poseidon, IM_RATES)
        original_layout = extract_layout(poseidon)
        reflected_layout = extract_layout(reflected)
        assert reflected_layout.keys() == original_layout.keys()

    def test_solver_choice_propagates(self):
        platform = Choreographer(solver="jacobi")
        outcome = platform.analyse_activity_diagram(build_file_activity_diagram(), FILE_RATES)
        reference = Choreographer().analyse_activity_diagram(
            build_file_activity_diagram(), FILE_RATES
        )
        assert math.isclose(
            outcome.throughput_of("read"), reference.throughput_of("read"), rel_tol=1e-5
        )


class TestWorkbenches:
    def test_pepa_workbench_source_round(self):
        workbench = PepaWorkbench()
        analysis = workbench.solve_source(
            "P = (a, 2.0).Q; Q = (b, 1.0).P; P"
        )
        assert analysis.n_states == 2
        assert math.isclose(analysis.throughput("a"), analysis.throughput("b"), rel_tol=1e-9)

    def test_net_workbench_source_round(self):
        workbench = PepaNetWorkbench()
        analysis = workbench.solve_source(
            """
            Tok = (go, 1).Tok;
            A[Tok] = Tok[_];
            B[_] = Tok[_];
            ab = (go, 1) : A -> B;
            ba = (go, 1) : B -> A;
            """
        )
        assert analysis.n_states == 2

    def test_workbench_rejects_ill_formed(self):
        from repro.exceptions import WellFormednessError

        with pytest.raises(WellFormednessError):
            PepaWorkbench().parse("P = (a, 1).Ghost; P")
