"""The shared labelled-transition-system structure.

Every formalism in the tool chain — PEPA derivation graphs, PEPA-net
marking graphs, Petri-net reachability graphs — boils down to the same
numerical object: a list of interned states, a multiset of labelled
arcs between state *indices*, and an index mapping each state back to
its position (Ding & Hillston's argument for one uniform numerical
representation between the algebraic model and the solver).  This
module is that one representation; the per-formalism state-space
classes are thin subclasses adding only domain vocabulary.

The arcs are stored one way only: as :class:`ArcArrays`, four flat
arrays (source, target, rate, action code) in generation order, which
is the form the exploration kernel writes and the CTMC assembly reads.
Everything object-shaped is built on first read and kept:

* :attr:`Lts.arcs`, the :class:`LabelledArc` list (``arc_builds``);
* :attr:`Lts.states`, when the search ran over compact states and
  handed a ``render`` function (``state_builds``);
* :attr:`Lts.index`, the state → index map (``index_builds``);
* the adjacency index behind ``successors`` and ``arcs_by_action``
  (``adjacency_builds``): one O(arcs) pass, after which every lookup is
  O(out-degree) / O(1) instead of a scan per call.

Rendering states and their label strings runs inside an ``lts.render``
span, wherever the first read happens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, NamedTuple

import numpy as np

from repro.ctmc.chain import record_arrays
from repro.obs import get_tracer

__all__ = ["ArcArrays", "LabelledArc", "Lts"]


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


class ArcArrays(NamedTuple):
    """The arcs of an LTS as parallel arrays, in generation order.

    ``action[k]`` is a code into ``actions``, which lists the action
    types in order of first appearance.
    """

    source: np.ndarray
    target: np.ndarray
    rate: np.ndarray
    action: np.ndarray
    actions: tuple[str, ...]

    @classmethod
    def of(cls, arcs: Iterable[LabelledArc]) -> "ArcArrays":
        """The arrays of a sequence of arcs."""
        return cls(*record_arrays((a.source, a.action, a.rate, a.target) for a in arcs))

    def labelled(self) -> list[LabelledArc]:
        """The arcs as :class:`LabelledArc` objects, in order."""
        names = self.actions
        return [
            LabelledArc(s, names[a], r, t)
            for s, a, r, t in zip(self.source.tolist(), self.action.tolist(),
                                  self.rate.tolist(), self.target.tolist())
        ]


class Lts:
    """Interned states + arc arrays, with every object view built once,
    on demand.

    ``states[i]`` is the domain object for state ``i`` (a PEPA
    derivative, a net marking, ...); the initial state is always 0 —
    every exploration starts numbering from its root.  ``arcs`` is an
    :class:`ArcArrays` or a sequence of :class:`LabelledArc`, which is
    converted.

    With ``render``, ``states`` holds the search's own compact states
    and :attr:`states` is ``render(states)``, computed on first read.
    Unless passed in, ``index`` is built on first access: hashing every
    state is a cost a compiled search or a cache hit should not pay for
    a map nothing may read.  The ``*_builds`` counters (0 or 1) let
    tests pin that nothing is built that nothing reads.
    """

    def __init__(
        self,
        states: list[Any],
        arcs: ArcArrays | Iterable[LabelledArc],
        index: dict[Hashable, int] | None = None,
        *,
        render: Callable[[list[Any]], list[Any]] | None = None,
    ):
        self._arc_list: list[LabelledArc] | None = None
        if not isinstance(arcs, ArcArrays):
            self._arc_list = list(arcs)
            arcs = ArcArrays.of(self._arc_list)
        #: The one stored form of the arcs.
        self.arc_arrays = arcs
        self._n_states = len(states)
        self._raw = states if render is not None else None
        self._states = None if render is not None else states
        self._render = render
        self._index = index
        self._out: list[list[LabelledArc]] | None = None
        self._by_action: dict[str, list[LabelledArc]] | None = None
        #: How many times each lazy view has been built (0 or 1).
        self.arc_builds = 0
        self.state_builds = 0
        self.index_builds = 0
        self.adjacency_builds = 0
        #: The :class:`~repro.core.keys.DerivationKey` this LTS was read
        #: from or published under by the derivation cache, else ``None``.
        self.cache_key = None

    # ------------------------------------------------------------------
    # Plain accessors
    # ------------------------------------------------------------------
    @property
    def states(self) -> list[Any]:
        """The domain object of every state (rendered once, on demand)."""
        if self._states is None:
            with get_tracer().span("lts.render", what="states", states=self._n_states):
                self._states = self._render(self._raw)
            self._raw = self._render = None
            self.state_builds += 1
        return self._states

    @property
    def arcs(self) -> list[LabelledArc]:
        """The arcs as :class:`LabelledArc` objects in generation order
        (built once, on demand)."""
        if self._arc_list is None:
            self._arc_list = self.arc_arrays.labelled()
            self.arc_builds += 1
        return self._arc_list

    @property
    def n_arcs(self) -> int:
        return len(self.arc_arrays.source)

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
        return self._n_states

    def __len__(self) -> int:
        return self._n_states

    def __repr__(self) -> str:
        return f"{type(self).__name__}(states={self.size}, arcs={self.n_arcs})"

    def actions(self) -> frozenset[str]:
        """Every action type labelling some arc."""
        return frozenset(self.arc_arrays.actions)

    def state_label(self, i: int) -> str:
        """Human-readable rendering of state ``i``."""
        return str(self.states[i])

    def state_labels(self) -> list[str]:
        """:meth:`state_label` of every state, in order."""
        states = self.states
        with get_tracer().span("lts.render", what="labels", states=len(states)):
            return [str(s) for s in states]

    # ------------------------------------------------------------------
    # Indexed accessors — O(out-degree) after a one-time O(arcs) build
    # ------------------------------------------------------------------
    def _build_adjacency(self) -> None:
        out: list[list[LabelledArc]] = [[] for _ in range(self.size)]
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
        has_out = np.zeros(self.size, dtype=bool)
        has_out[self.arc_arrays.source] = True
        return np.flatnonzero(~has_out).tolist()
