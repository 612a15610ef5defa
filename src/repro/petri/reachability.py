"""Reachability analysis for P/T nets.

Builds the explicit reachability graph (bounded, with a state ceiling)
and answers the classic behavioural questions: boundedness (via a
coverability-style check during exploration), deadlock states, liveness
of individual transitions, and home-marking detection.

The graph is explored by the shared BFS kernel
(:func:`repro.core.explore.explore_lts`), which brings the Petri layer
the same cooperative :class:`~repro.resilience.budget.ExecutionBudget`
support, tracer span (``petri.reachability``) and ``explore.progress``
events the PEPA layers have; the unboundedness abort is expressed as
the kernel's ``on_new_state`` hook walking the BFS ancestor chain.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

import networkx as nx

from repro.core.explore import Exploration, explore_lts
from repro.core.lts import ArcArrays, LabelledArc, Lts
from repro.exceptions import StateSpaceError
from repro.petri.marking import Marking
from repro.petri.net import PetriNet

if TYPE_CHECKING:  # pragma: no cover — typing only, avoids a hard import
    from repro.resilience.budget import ExecutionBudget

__all__ = ["ReachabilityGraph", "build_reachability_graph"]

DEFAULT_MAX_MARKINGS = 500_000


class ReachabilityGraph(Lts):
    """The reachable markings of a net, with the firing relation.

    Arcs carry the conventional rate 1.0 (the untimed semantics has no
    rates); :attr:`edges` renders them as the classic ``(source,
    transition, target)`` triples.
    """

    def __init__(
        self,
        net: PetriNet,
        markings: list[Marking],
        index: dict[Marking, int] | None = None,
        edges: list[tuple[int, str, int]] | None = None,
        arcs: ArcArrays | list[LabelledArc] | None = None,
    ):
        if arcs is None:
            arcs = [LabelledArc(s, t, 1.0, d) for s, t, d in (edges or [])]
        super().__init__(markings, arcs, index)
        self.net = net

    @property
    def markings(self) -> list[Marking]:
        return self.states

    @property
    def edges(self) -> list[tuple[int, str, int]]:
        """The firing relation as (source, transition name, target)."""
        return [(a.source, a.action, a.target) for a in self.arcs]

    def is_deadlock_free(self) -> bool:
        """True when every reachable marking enables something."""
        return not self.deadlocks()

    def bound_of(self, place: str) -> int:
        """The maximum observed token count of ``place`` (its k-bound)."""
        return max(m[place] for m in self.markings)

    def is_safe(self) -> bool:
        """1-bounded everywhere."""
        return all(max(m.counts) <= 1 for m in self.markings)

    def fired_transitions(self) -> frozenset[str]:
        """Transitions that fire somewhere in the graph."""
        return self.actions()

    def dead_transitions(self) -> frozenset[str]:
        """Transitions that never fire from any reachable marking."""
        return frozenset(self.net.transitions) - self.fired_transitions()

    def live_transitions(self) -> frozenset[str]:
        """Transitions fireable again from every reachable marking
        (L4-liveness on the finite graph: each transition labels an edge
        reachable from every node)."""
        reverse = self.to_networkx().reverse(copy=False)
        all_states = set(range(self.size))
        live: set[str] = set()
        # nodes from which each transition-labelled edge is reachable
        for t in self.net.transitions:
            edge_sources = {a.source for a in self.arcs_by_action(t)}
            if not edge_sources:
                continue
            reachable_back: set[int] = set()
            for src in edge_sources:
                reachable_back |= {src} | nx.descendants(reverse, src)
            if reachable_back >= all_states:
                live.add(t)
        return frozenset(live)

    def home_markings(self) -> list[int]:
        """Markings reachable from every reachable marking."""
        graph = self.to_networkx()
        sccs = list(nx.strongly_connected_components(graph))
        condensed = nx.condensation(graph, sccs)
        terminal = [n for n in condensed.nodes if condensed.out_degree(n) == 0]
        if len(terminal) != 1:
            return []
        return sorted(sccs[terminal[0]])

    def to_networkx(self) -> "nx.MultiDiGraph":
        """The graph as a networkx MultiDiGraph (edge label = transition)."""
        graph = nx.MultiDiGraph()
        graph.add_nodes_from(range(self.size))
        for a in self.arcs:
            graph.add_edge(a.source, a.target, label=a.action)
        return graph


def build_reachability_graph(
    net: PetriNet,
    *,
    max_markings: int = DEFAULT_MAX_MARKINGS,
    budget: "ExecutionBudget | None" = None,
) -> ReachabilityGraph:
    """BFS over the firing relation.

    Unbounded nets are detected by the ω-free coverability heuristic: if
    a newly reached marking strictly covers an ancestor on its path, the
    net is unbounded and exploration aborts with a clear error rather
    than running to the state ceiling.  ``budget`` is an optional
    cooperative :class:`~repro.resilience.budget.ExecutionBudget`
    checked once per expanded marking.
    """

    def successors(marking: Marking) -> Iterator[tuple[str, float, Marking]]:
        for transition in net.enabled_transitions(marking):
            yield transition.name, 1.0, net.fire(transition, marking)

    def check_bounded(successor: Marking, src: int, exploration: Exploration) -> None:
        # coverability: walk ancestors; strict covering => unbounded
        for ancestor in exploration.ancestors(src):
            if successor.covers(ancestor) and successor != ancestor:
                raise StateSpaceError(
                    f"net {net.name!r} is unbounded: marking {successor} "
                    f"strictly covers ancestor {ancestor}"
                )

    lts = explore_lts(
        net.initial_marking,
        successors,
        stage="petri.reachability",
        budget_stage="petri reachability graph",
        max_states=max_markings,
        budget=budget,
        span_attrs={"net": net.name, "transitions": len(net.transitions)},
        span_count_key="markings",
        overflow=lambda n: f"reachability graph exceeds {n} markings",
        on_new_state=check_bounded,
    )
    return ReachabilityGraph(
        net=net, markings=lts.states, index=lts.index, arcs=lts.arc_arrays
    )
