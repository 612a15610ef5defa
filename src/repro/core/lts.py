"""The shared labelled-transition-system structure.

Every formalism in the tool chain — PEPA derivation graphs, PEPA-net
marking graphs, Petri-net reachability graphs — boils down to the same
numerical object: a list of interned states, a multiset of labelled
arcs between state *indices*, and an index mapping each state back to
its position (Ding & Hillston's argument for one uniform numerical
representation between the algebraic model and the solver).  This
module is that one representation; the per-formalism state-space
classes are thin subclasses adding only domain vocabulary.

Accessors that need per-state or per-action lookups (``successors``,
``arcs_by_action``, ``deadlocks``) run off a **built-once adjacency
index**: the first such call groups the arc list by source and by
action in one O(arcs) pass, after which every lookup is O(out-degree)
/ O(1) instead of a full-arc-list scan per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterator

__all__ = ["LabelledArc", "Lts"]


@dataclass(frozen=True)
class LabelledArc:
    """One transition of the LTS, with state indices and a *numeric*
    rate.  For stochastic formalisms the rate is the exponential rate of
    the activity/firing; untimed graphs (plain Petri reachability) use
    a conventional rate of 1.0 and ignore it."""

    source: int
    action: str
    rate: float
    target: int


class Lts:
    """Interned states + labelled arcs with lazy, built-once adjacency.

    ``states[i]`` is the domain object for state ``i`` (a PEPA
    derivative, a net marking, ...); ``arcs`` is the ordered multiset of
    labelled transitions between state indices; ``index`` maps each
    state object back to its index.  The initial state is always 0 —
    every exploration starts numbering from its root.

    Unless passed in, ``index`` is built on first access
    (:attr:`index_builds` counts the constructions): hashing every state
    is a cost a compiled search or a cache hit should not pay for a map
    nothing may read.

    The adjacency index is constructed at most once per instance, on
    the first call that needs it (:attr:`adjacency_builds` counts the
    constructions so tests can pin the "at most once" contract).  The
    arc list must therefore not be mutated after the first indexed
    lookup.
    """

    def __init__(
        self,
        states: list[Any],
        arcs: list[LabelledArc],
        index: dict[Hashable, int] | None = None,
    ):
        self.states = states
        self.arcs = arcs
        self._index = index
        #: How many times the state index has been built (0 or 1).
        self.index_builds = 0
        self._out: list[list[LabelledArc]] | None = None
        self._by_action: dict[str, list[LabelledArc]] | None = None
        #: How many times the adjacency index has been built (0 or 1).
        self.adjacency_builds = 0
        #: The :class:`~repro.core.keys.DerivationKey` this LTS was read
        #: from or published under by the derivation cache, else ``None``.
        self.cache_key = None

    # ------------------------------------------------------------------
    # Plain accessors
    # ------------------------------------------------------------------
    @property
    def index(self) -> dict[Hashable, int]:
        """Each state object mapped to its index (built once, on demand)."""
        if self._index is None:
            self._index = {s: i for i, s in enumerate(self.states)}
            self.index_builds += 1
        return self._index

    @property
    def initial(self) -> int:
        return 0

    @property
    def size(self) -> int:
        return len(self.states)

    def __len__(self) -> int:
        return len(self.states)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(states={len(self.states)}, "
            f"arcs={len(self.arcs)})"
        )

    def actions(self) -> frozenset[str]:
        """Every action type labelling some arc."""
        return frozenset(arc.action for arc in self.arcs)

    def state_label(self, i: int) -> str:
        """Human-readable rendering of state ``i``."""
        return str(self.states[i])

    # ------------------------------------------------------------------
    # Indexed accessors — O(out-degree) after a one-time O(arcs) build
    # ------------------------------------------------------------------
    def _build_adjacency(self) -> None:
        out: list[list[LabelledArc]] = [[] for _ in range(len(self.states))]
        by_action: dict[str, list[LabelledArc]] = {}
        for arc in self.arcs:
            out[arc.source].append(arc)
            by_action.setdefault(arc.action, []).append(arc)
        self._out = out
        self._by_action = by_action
        self.adjacency_builds += 1

    def successors(self, state: int) -> list[LabelledArc]:
        """The outgoing arcs of one state (do not mutate)."""
        if self._out is None:
            self._build_adjacency()
        return self._out[state]

    def arcs_by_action(self, action: str) -> list[LabelledArc]:
        """All arcs labelled with the given action type (do not mutate)."""
        if self._by_action is None:
            self._build_adjacency()
        return self._by_action.get(action, [])

    def deadlocks(self) -> list[int]:
        """Indices of states with no outgoing arcs."""
        if self._out is None:
            self._build_adjacency()
        return [i for i, out in enumerate(self._out) if not out]

    def iter_transitions(self) -> Iterator[tuple[int, str, float, int]]:
        """Arcs as plain ``(source, action, rate, target)`` tuples — the
        shape :func:`repro.ctmc.chain.build_ctmc` consumes."""
        for arc in self.arcs:
            yield arc.source, arc.action, arc.rate, arc.target
