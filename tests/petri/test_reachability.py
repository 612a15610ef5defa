"""Unit tests for reachability analysis and structural invariants."""

import pytest

from repro.exceptions import BudgetExceededError, StateSpaceError
from repro.obs import EventStream, ObsContext, Tracer, use_obs
from repro.petri import (
    PetriNet,
    build_reachability_graph,
    conserved_token_sum,
    p_invariants,
    t_invariants,
)
from repro.resilience import ExecutionBudget


def token_ring(n_places: int = 3, tokens: int = 1) -> PetriNet:
    net = PetriNet("ring")
    for i in range(n_places):
        net.add_place(f"p{i}", tokens=tokens if i == 0 else 0)
    for i in range(n_places):
        net.add_transition(f"t{i}", {f"p{i}": 1}, {f"p{(i + 1) % n_places}": 1})
    return net


def mutex_net() -> PetriNet:
    """Two processes competing for one mutex token."""
    net = PetriNet("mutex")
    net.add_place("idle1", tokens=1)
    net.add_place("crit1", tokens=0)
    net.add_place("idle2", tokens=1)
    net.add_place("crit2", tokens=0)
    net.add_place("mutex", tokens=1)
    net.add_transition("enter1", {"idle1": 1, "mutex": 1}, {"crit1": 1})
    net.add_transition("exit1", {"crit1": 1}, {"idle1": 1, "mutex": 1})
    net.add_transition("enter2", {"idle2": 1, "mutex": 1}, {"crit2": 1})
    net.add_transition("exit2", {"crit2": 1}, {"idle2": 1, "mutex": 1})
    return net


class TestReachability:
    def test_ring_marking_count(self):
        graph = build_reachability_graph(token_ring(3))
        assert graph.size == 3

    def test_ring_with_two_tokens(self):
        graph = build_reachability_graph(token_ring(3, tokens=2))
        # multiset of 2 identitiless tokens over 3 places: C(2+2,2) = 6
        assert graph.size == 6

    def test_mutex_exclusion_invariant(self):
        graph = build_reachability_graph(mutex_net())
        for m in graph.markings:
            assert m["crit1"] + m["crit2"] <= 1

    def test_mutex_graph_size(self):
        graph = build_reachability_graph(mutex_net())
        assert graph.size == 3  # both idle / 1 in crit / 2 in crit

    def test_deadlock_free_ring(self):
        assert build_reachability_graph(token_ring()).is_deadlock_free()

    def test_deadlock_detected(self):
        net = PetriNet()
        net.add_place("p", tokens=1)
        net.add_place("q")
        net.add_transition("t", {"p": 1}, {"q": 1})
        graph = build_reachability_graph(net)
        assert graph.deadlocks() == [1]

    def test_place_bounds(self):
        graph = build_reachability_graph(token_ring(3, tokens=2))
        assert graph.bound_of("p0") == 2
        assert not graph.is_safe()
        assert build_reachability_graph(token_ring(3, tokens=1)).is_safe()

    def test_unbounded_net_detected(self):
        net = PetriNet("unbounded")
        net.add_place("p", tokens=1)
        net.add_place("heap", tokens=0)
        net.add_transition("spawn", {"p": 1}, {"p": 1, "heap": 1})
        with pytest.raises(StateSpaceError, match="unbounded"):
            build_reachability_graph(net)

    def test_marking_ceiling(self):
        with pytest.raises(StateSpaceError, match="markings"):
            build_reachability_graph(token_ring(8, tokens=4), max_markings=5)

    def test_dead_transitions(self):
        net = PetriNet()
        net.add_place("p", tokens=1)
        net.add_place("never", tokens=0)
        net.add_transition("live", {"p": 1}, {"p": 1})
        net.add_transition("dead", {"never": 1}, {})
        graph = build_reachability_graph(net)
        assert graph.dead_transitions() == {"dead"}

    def test_live_transitions_in_ring(self):
        graph = build_reachability_graph(token_ring(3))
        assert graph.live_transitions() == {"t0", "t1", "t2"}

    def test_home_markings_of_reversible_net(self):
        graph = build_reachability_graph(mutex_net())
        # the mutex net is reversible: every marking is a home marking
        assert graph.home_markings() == [0, 1, 2]

    def test_no_home_marking_with_two_sinks(self):
        net = PetriNet()
        net.add_place("start", tokens=1)
        net.add_place("left")
        net.add_place("right")
        net.add_transition("go_left", {"start": 1}, {"left": 1})
        net.add_transition("go_right", {"start": 1}, {"right": 1})
        graph = build_reachability_graph(net)
        assert graph.home_markings() == []


class TestBudgetedReachability:
    """Petri reachability honours an ExecutionBudget via the shared
    exploration kernel — support it never had before."""

    def test_deadline_budget_aborts_exploration(self):
        budget = ExecutionBudget.of(deadline_seconds=0.0)
        with pytest.raises(BudgetExceededError) as info:
            build_reachability_graph(token_ring(8, tokens=4), budget=budget)
        assert info.value.stage == "petri reachability graph"
        assert info.value.explored >= 1

    def test_roomy_budget_matches_unbudgeted_graph(self):
        roomy = ExecutionBudget.of(deadline_seconds=300.0)
        budgeted = build_reachability_graph(mutex_net(), budget=roomy)
        plain = build_reachability_graph(mutex_net())
        assert budgeted.markings == plain.markings
        assert budgeted.edges == plain.edges

    def test_coverability_honours_budget_too(self):
        from repro.petri import build_coverability_graph

        budget = ExecutionBudget.of(deadline_seconds=0.0)
        with pytest.raises(BudgetExceededError) as info:
            build_coverability_graph(token_ring(8, tokens=4), budget=budget)
        assert info.value.stage == "petri coverability graph"


class TestObservedReachability:
    """The kernel gives the Petri layer spans + progress events."""

    def test_exploration_is_traced(self):
        tracer = Tracer()
        with use_obs(ObsContext(tracer=tracer)):
            graph = build_reachability_graph(mutex_net())
        span = tracer.roots[0]
        assert span.name == "petri.reachability"
        assert span.attributes["markings"] == graph.size
        assert span.attributes["arcs"] == len(graph.edges)
        assert span.closed

    def test_exploration_emits_progress_events(self, monkeypatch):
        from repro.core import explore

        monkeypatch.setattr(explore, "PROGRESS_INTERVAL", 2)
        stream = EventStream()
        with use_obs(ObsContext(events=stream)):
            graph = build_reachability_graph(token_ring(4, tokens=2))
        progress = stream.by_name("explore.progress")
        assert progress
        assert progress[-1].fields["stage"] == "petri.reachability"
        assert progress[-1].fields["explored"] == graph.size
        assert progress[-1].fields["frontier"] == 0

    def test_tracing_with_budget_and_events_together(self, monkeypatch):
        from repro.core import explore

        monkeypatch.setattr(explore, "PROGRESS_INTERVAL", 2)
        tracer, stream = Tracer(), EventStream()
        roomy = ExecutionBudget.of(deadline_seconds=300.0)
        with use_obs(ObsContext(tracer=tracer, events=stream)):
            graph = build_reachability_graph(mutex_net(), budget=roomy)
        assert graph.size == 3
        assert tracer.roots[0].name == "petri.reachability"
        assert stream.by_name("explore.progress")


class TestInvariants:
    def test_ring_conserves_tokens(self):
        invariants = p_invariants(token_ring(3))
        assert len(invariants) == 1
        assert invariants[0] == {"p0": 1, "p1": 1, "p2": 1}
        assert conserved_token_sum(token_ring(3), invariants[0]) == 1

    def test_mutex_invariants(self):
        # the null space is 3-dimensional: idle1+crit1, idle2+crit2 and
        # mutex+crit1+crit2 are all conserved
        invariants = p_invariants(mutex_net())
        assert len(invariants) == 3
        # every basis invariant is genuinely conserved on the graph
        graph = build_reachability_graph(mutex_net())
        for inv in invariants:
            sums = {sum(w * m[p] for p, w in inv.items()) for m in graph.markings}
            assert len(sums) == 1

    def test_t_invariant_of_ring(self):
        invariants = t_invariants(token_ring(3))
        assert invariants == [{"t0": 1, "t1": 1, "t2": 1}]

    def test_acyclic_net_has_no_t_invariant(self):
        net = PetriNet()
        net.add_place("a", tokens=1)
        net.add_place("b")
        net.add_transition("t", {"a": 1}, {"b": 1})
        assert t_invariants(net) == []

    def test_weighted_invariant(self):
        """2 tokens of 'half' equal 1 token of 'whole': weights 1 and 2."""
        net = PetriNet()
        net.add_place("half", tokens=2)
        net.add_place("whole", tokens=0)
        net.add_transition("fuse", {"half": 2}, {"whole": 1})
        net.add_transition("split", {"whole": 1}, {"half": 2})
        invariants = p_invariants(net)
        assert len(invariants) == 1
        assert invariants[0] == {"half": 1, "whole": 2}
