"""Tests for the cooperative wall-clock execution budget."""

import math
import time

import pytest

from repro.exceptions import BudgetExceededError, ReproError
from repro.pepa import parse_model
from repro.pepa.statespace import derive
from repro.pepanets.parser import parse_net
from repro.pepanets.semantics import explore_net
from repro.resilience import ExecutionBudget

CYCLE_SRC = "P1 = (a, 1.0).P2; P2 = (b, 1.0).P3; P3 = (c, 1.0).P1; P1"

NET_SRC = """
Tok = (go, 1).Tok;
A[Tok] = Tok[_];
B[_] = Tok[_];
ab = (go, 1) : A -> B;
ba = (go, 1) : B -> A;
"""


class TestDeadline:
    def test_unbounded_never_expires(self):
        budget = ExecutionBudget.of(deadline_seconds=math.inf)
        for _ in range(200):
            budget.checkpoint(stage="demo", explored=5)
        assert "inf" in repr(budget)

    def test_zero_deadline_expires_immediately(self):
        budget = ExecutionBudget.of(deadline_seconds=0.0)
        with pytest.raises(BudgetExceededError):
            budget.checkpoint(stage="demo", explored=1)

    def test_elapsed_is_monotone(self):
        budget = ExecutionBudget.of(deadline_seconds=100.0)
        first = budget.elapsed()
        second = budget.elapsed()
        assert 0.0 <= first <= second

    def test_repr_mentions_budget(self):
        assert "5s" in repr(ExecutionBudget.of(deadline_seconds=5.0))


class TestExecutionBudget:
    def test_budget_error_carries_resumable_summary(self):
        budget = ExecutionBudget.of(deadline_seconds=0.0)
        with pytest.raises(BudgetExceededError) as info:
            budget.checkpoint(stage="demo", explored=11, frontier=4)
        exc = info.value
        assert exc.explored == 11
        assert exc.frontier == 4
        assert exc.stage == "demo"
        assert "deadline=0s" in exc.summary()
        assert "frontier=4" in exc.summary()
        # context mirrors the structured fields (uniform .context dict)
        assert exc.context["stage"] == "demo"
        assert exc.context["explored"] == 11

    def test_under_budget_passes(self):
        budget = ExecutionBudget.of(deadline_seconds=100.0)
        for i in range(200):
            budget.checkpoint(stage="demo", explored=5, frontier=0)

    def test_deadline_budget_raises(self):
        budget = ExecutionBudget.of(deadline_seconds=0.0)
        with pytest.raises(BudgetExceededError) as info:
            budget.checkpoint(stage="demo", explored=3, frontier=1)
        assert "deadline" in (info.value.limit or "")
        assert info.value.elapsed is not None

    def test_first_checkpoint_always_consults_clock(self):
        budget = ExecutionBudget.of(deadline_seconds=0.0)
        with pytest.raises(BudgetExceededError):
            budget.checkpoint(stage="demo", explored=1)

    def test_every_checkpoint_reads_the_clock(self, monkeypatch):
        now = [1000.0]
        monkeypatch.setattr(time, "monotonic", lambda: now[0])
        budget = ExecutionBudget.of(deadline_seconds=10.0)
        for _ in range(5):
            budget.checkpoint(stage="demo", explored=1)
        now[0] = 1010.0     # the deadline passes between two calls
        with pytest.raises(BudgetExceededError):
            budget.checkpoint(stage="demo", explored=1)

    def test_is_a_repro_error(self):
        assert issubclass(BudgetExceededError, ReproError)


class TestBudgetedExploration:
    def test_pepa_derivation_respects_deadline(self):
        model = parse_model(CYCLE_SRC)
        budget = ExecutionBudget.of(deadline_seconds=0.0)
        with pytest.raises(BudgetExceededError) as info:
            derive(model, budget=budget)
        assert info.value.stage == "pepa state space"

    def test_pepa_derivation_without_budget_unchanged(self):
        model = parse_model(CYCLE_SRC)
        assert derive(model).size == 3

    def test_net_exploration_respects_deadline(self):
        net = parse_net(NET_SRC)
        budget = ExecutionBudget.of(deadline_seconds=0.0)
        with pytest.raises(BudgetExceededError) as info:
            explore_net(net, budget=budget)
        assert info.value.stage == "pepa-net marking space"

    def test_net_exploration_with_roomy_budget_matches_plain(self):
        net = parse_net(NET_SRC)
        roomy = ExecutionBudget.of(deadline_seconds=300.0)
        assert explore_net(net, budget=roomy).size == explore_net(net).size

    @pytest.mark.parametrize("search,stage", [
        ("explore", "pepa state space"),
        ("explore_reference", "pepa state space"),
        ("explore_net", "pepa-net marking space"),
        ("reachability", "petri reachability graph"),
    ])
    def test_zero_deadline_stops_every_search(self, search, stage):
        """Each search checkpoints before its first expansion, and the
        error names the search's stage."""
        from repro.pepa.statespace import explore, explore_reference
        from repro.petri import PetriNet, build_reachability_graph

        model, net = parse_model(CYCLE_SRC), parse_net(NET_SRC)
        ring = PetriNet()
        ring.add_place("p", tokens=1)
        ring.add_transition("t", {"p": 1}, {"p": 1})
        run = {
            "explore": lambda b: explore(model.system, model.environment, budget=b),
            "explore_reference": lambda b: explore_reference(
                model.system, model.environment, budget=b),
            "explore_net": lambda b: explore_net(net, budget=b),
            "reachability": lambda b: build_reachability_graph(ring, budget=b),
        }[search]
        with pytest.raises(BudgetExceededError) as info:
            run(ExecutionBudget.of(deadline_seconds=0.0))
        assert info.value.stage == stage
        assert info.value.explored == 1
        assert stage in str(info.value)
