"""Unit tests for the shared LTS structure (:mod:`repro.core.lts`)."""

import pytest

from repro.core.lts import LabelledArc, Lts


@pytest.fixture
def diamond() -> Lts:
    """0 -a/b-> 1,2 -c-> 3; state 3 is a deadlock; parallel a-arcs."""
    arcs = [
        LabelledArc(0, "a", 1.0, 1),
        LabelledArc(0, "a", 0.5, 1),
        LabelledArc(0, "b", 2.0, 2),
        LabelledArc(1, "c", 3.0, 3),
        LabelledArc(2, "c", 4.0, 3),
    ]
    return Lts(states=["s0", "s1", "s2", "s3"], arcs=arcs)


class TestAccessors:
    def test_size_len_initial(self, diamond):
        assert diamond.size == 4
        assert len(diamond) == 4
        assert diamond.initial == 0

    def test_default_index_interns_states(self, diamond):
        assert diamond.index == {"s0": 0, "s1": 1, "s2": 2, "s3": 3}

    def test_explicit_index_is_kept(self):
        index = {"x": 0}
        lts = Lts(states=["x"], arcs=[], index=index)
        assert lts.index is index
        assert lts.index_builds == 0

    def test_index_is_built_once_on_first_access(self, diamond):
        assert diamond.index_builds == 0
        first = diamond.index
        assert diamond.index is first
        assert diamond.index_builds == 1

    def test_actions(self, diamond):
        assert diamond.actions() == {"a", "b", "c"}

    def test_state_label(self, diamond):
        assert diamond.state_label(2) == "s2"

    def test_deadlocks(self, diamond):
        assert diamond.deadlocks() == [3]

    def test_arc_arrays_match_arcs(self, diamond):
        arrays = diamond.arc_arrays
        assert arrays.source.tolist() == [a.source for a in diamond.arcs]
        assert arrays.target.tolist() == [a.target for a in diamond.arcs]
        assert arrays.rate.tolist() == [a.rate for a in diamond.arcs]
        assert [arrays.actions[c] for c in arrays.action.tolist()] == [
            a.action for a in diamond.arcs
        ]
        assert arrays.actions == ("a", "b", "c")  # first-appearance order

    def test_repr_mentions_sizes(self, diamond):
        assert "states=4" in repr(diamond)
        assert "arcs=5" in repr(diamond)


class TestAdjacencyIndex:
    def test_successors_groups_by_source_in_arc_order(self, diamond):
        assert diamond.successors(0) == diamond.arcs[:3]
        assert diamond.successors(1) == [diamond.arcs[3]]
        assert diamond.successors(3) == []

    def test_arcs_by_action_groups_by_label(self, diamond):
        assert diamond.arcs_by_action("a") == diamond.arcs[:2]
        assert diamond.arcs_by_action("c") == diamond.arcs[3:]
        assert diamond.arcs_by_action("missing") == []

    def test_index_is_built_lazily(self, diamond):
        assert diamond.adjacency_builds == 0

    def test_index_is_built_at_most_once(self, diamond):
        # Many calls across all three indexed accessors: one build.
        for _ in range(5):
            diamond.successors(0)
            diamond.arcs_by_action("a")
            diamond.deadlocks()
        assert diamond.adjacency_builds == 1

    def test_successors_returns_constant_time_lookup(self, diamond):
        """After the one-time build, ``successors`` is a plain list
        lookup — the same list object every call, no per-call scan."""
        first = diamond.successors(0)
        assert diamond.successors(0) is first
