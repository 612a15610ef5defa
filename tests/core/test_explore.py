"""Unit tests for the shared BFS kernel (:mod:`repro.core.explore`)."""

import time

import pytest

from repro.core.explore import Exploration, explore_lts
from repro.core.lts import LabelledArc
from repro.exceptions import BudgetExceededError, StateSpaceError
from repro.obs import EventStream, MetricsRegistry, ObsContext, Tracer, use_obs
from repro.resilience.budget import ExecutionBudget


def counter_chain(n: int):
    """Successor fn for the line graph 0 -> 1 -> ... -> n (deadlock at n)."""

    def successors(state: int):
        if state < n:
            yield "step", 1.0, state + 1

    return successors


def binary_tree(depth: int):
    """Successor fn for a binary branching structure over int states."""

    def successors(state: int):
        if state < 2 ** depth:
            yield "left", 1.0, 2 * state
            yield "right", 2.0, 2 * state + 1

    return successors


class TestKernel:
    def test_discovery_order_is_breadth_first(self):
        lts = explore_lts(1, binary_tree(2), stage="test.explore")
        # BFS from 1: children 2,3 then 4,5,6,7 then their children...
        assert lts.states[:7] == [1, 2, 3, 4, 5, 6, 7]
        assert lts.initial == 0
        assert lts.index[1] == 0

    def test_arcs_record_action_rate_and_indices(self):
        lts = explore_lts(0, counter_chain(2), stage="test.explore")
        assert lts.arcs == [
            LabelledArc(0, "step", 1.0, 1),
            LabelledArc(1, "step", 1.0, 2),
        ]

    def test_state_ceiling_raises_with_custom_message(self):
        with pytest.raises(StateSpaceError, match="only 3 allowed"):
            explore_lts(0, counter_chain(100), stage="test.explore",
                        max_states=3, overflow=lambda n: f"only {n} allowed")

    def test_state_ceiling_default_message_names_stage(self):
        with pytest.raises(StateSpaceError, match="test.explore"):
            explore_lts(0, counter_chain(100), stage="test.explore", max_states=3)

    def test_revisited_states_only_add_arcs(self):
        def successors(state: int):
            yield "loop", 1.0, 0  # every state returns to the root

        lts = explore_lts(0, successors, stage="test.explore")
        assert lts.size == 1
        assert lts.arcs == [LabelledArc(0, "loop", 1.0, 0)]


class TestBudget:
    def test_deadline_budget_uses_budget_stage(self):
        budget = ExecutionBudget.of(deadline_seconds=0.0)
        with pytest.raises(BudgetExceededError) as info:
            explore_lts(0, counter_chain(100), stage="test.explore",
                        budget=budget, budget_stage="demo stage")
        assert info.value.stage == "demo stage"

    def test_budget_stage_defaults_to_span_stage(self):
        budget = ExecutionBudget.of(deadline_seconds=0.0)
        with pytest.raises(BudgetExceededError) as info:
            explore_lts(0, counter_chain(100), stage="test.explore", budget=budget)
        assert info.value.stage == "test.explore"

    def test_budget_error_carries_progress(self, monkeypatch):
        """The clock runs out after the fourth state: the error counts
        the states found by then."""
        reads = iter([0.0] + [0.0] * 3 + [10.0])
        monkeypatch.setattr(time, "monotonic", lambda: next(reads))
        budget = ExecutionBudget.of(deadline_seconds=5.0)
        with pytest.raises(BudgetExceededError) as info:
            explore_lts(0, counter_chain(100), stage="test.explore", budget=budget)
        assert info.value.explored == 4
        assert info.value.frontier == 0


class TestHooks:
    def test_adjust_successor_can_merge_states(self):
        # Accelerate every odd state up to its even successor (the shape
        # of Karp–Miller ω-acceleration: replace before interning).
        def adjust(candidate: int, src: int, exploration: Exploration) -> int:
            return candidate + (candidate % 2)

        lts = explore_lts(0, counter_chain(4), stage="test.explore",
                          adjust_successor=adjust)
        # 0 -> 1 adjusted to 2, 2 -> 3 adjusted to 4, 4 has no successor
        assert lts.states == [0, 2, 4]
        assert [(a.source, a.target) for a in lts.arcs] == [(0, 1), (1, 2)]

    def test_on_new_state_sees_ancestor_chain(self):
        seen: list[list[int]] = []

        def on_new(candidate: int, src: int, exploration: Exploration) -> None:
            seen.append(list(exploration.ancestors(src)))

        explore_lts(0, counter_chain(3), stage="test.explore", on_new_state=on_new)
        # state k is discovered from k-1 whose ancestors run back to 0
        assert seen == [[0], [1, 0], [2, 1, 0]]

    def test_on_new_state_can_abort_search(self):
        def on_new(candidate: int, src: int, exploration: Exploration) -> None:
            if candidate == 5:
                raise StateSpaceError("state five is forbidden")

        with pytest.raises(StateSpaceError, match="five"):
            explore_lts(0, counter_chain(100), stage="test.explore",
                        on_new_state=on_new)

    def test_parent_chain_not_tracked_without_hooks(self):
        # No hook => no Exploration bookkeeping on the hot path.
        lts = explore_lts(0, counter_chain(5), stage="test.explore")
        assert lts.size == 6


class TestObservability:
    def test_span_reports_counts_under_given_key(self):
        tracer = Tracer()
        with use_obs(ObsContext(tracer=tracer)):
            explore_lts(0, counter_chain(3), stage="test.explore",
                        span_attrs={"flavour": "unit"}, span_count_key="markings")
        span = tracer.roots[0]
        assert span.name == "test.explore"
        assert span.attributes["flavour"] == "unit"
        assert span.attributes["max_states"] == 1_000_000
        assert span.attributes["markings"] == 4
        assert span.attributes["arcs"] == 3

    def test_span_closed_with_counts_on_overflow(self):
        tracer = Tracer()
        with use_obs(ObsContext(tracer=tracer)):
            with pytest.raises(StateSpaceError):
                explore_lts(0, counter_chain(100), stage="test.explore",
                            max_states=2)
        span = tracer.roots[0]
        assert span.attributes["states"] == 2
        assert span.attributes["error"] == "StateSpaceError"

    def test_progress_events_every_interval_and_final(self, monkeypatch):
        from repro.core import explore

        monkeypatch.setattr(explore, "PROGRESS_INTERVAL", 2)
        stream = EventStream()
        with use_obs(ObsContext(events=stream)):
            explore_lts(0, counter_chain(6), stage="test.explore")
        progress = stream.by_name("explore.progress")
        # intermediate events at discovered indices 2, 4, 6 + final flush
        assert len(progress) == 4
        assert all(e.fields["stage"] == "test.explore" for e in progress)
        assert progress[-1].fields["explored"] == 7
        assert progress[-1].fields["frontier"] == 0

    def test_metrics_counters_incremented(self):
        metrics = MetricsRegistry()
        with use_obs(ObsContext(metrics=metrics)):
            explore_lts(0, counter_chain(4), stage="test.explore")
        assert metrics.counter("states_explored").value == 5
        assert metrics.counter("transitions").value == 4
