"""Compiled PEPA-net derivation: markings as tuples of leaf states.

Every place context is compiled once into a
:class:`~repro.pepa.compiled.Skeleton`; the place skeletons sit side by
side in one global tuple, in the net's place order.  A cell's state is
its content's id in the shared :class:`~repro.pepa.compiled.LeafTable`,
or ``-1`` when vacant; a static component's state is its term's id.

* **Local transitions** come from each place's skeleton walk, memoised
  on the place's sub-tuple with the place-level passive check applied.
* **Firings** (Definitions 2–6) run the shared
  :mod:`repro.pepanets.firing` logic over cell positions instead of cell
  paths.  Concession and the resolved firings of a transition read only
  the firing rows of its input cells' contents for the transition's
  action, and which of its output cells are vacant.  So both are
  evaluated once per *firing key*, ``(transition, input-cell firing
  classes, output-cell vacancy)``, where a content's firing class
  numbers its distinct ``(rate, derivative)`` rows of that action, and
  a vacant cell and a content that cannot fire the action share class 0
  (:class:`FiringClasses`).  A token moving through local states that
  cannot fire therefore keeps its firing key.  The firing key is built
  from C-level calls only (an ``itemgetter``, then ``map`` over the
  action's classes), and only on a marking whose plain key, ``(input-cell
  states, output-cell vacancy)``, the transition has not seen: the plain
  key maps straight to the firing key's record, so a seen marking pays
  one lookup per transition.  A firing is then a list of cell writes
  applied to the marking tuple, the same ``(leaf position, new id)``
  form as a local row's writes (:func:`~repro.pepa.compiled.apply_writes`).
* **Type admission** (Definition 4) is a table over
  ``(family, content id)`` filled from
  :class:`~repro.pepanets.firing.DerivativeSets`.
* **Occupancy**: :meth:`CompiledNet.occupancy` reads the filled cells
  off the marking rows (``row >= 0``), which is all the mobility
  measures need; no marking is rendered to count its tokens.

Successors, their order and float rates, and the first error raised
are those of :func:`repro.pepanets.semantics.net_arcs` on the rendered
marking.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter

import numpy as np

from repro.exceptions import WellFormednessError
from repro.pepa.compiled import LeafTable, Skeleton, Writes, apply_writes
from repro.pepa.rates import Rate
from repro.pepanets.firing import DerivativeSets, concession, resolved_firings, top_priority
from repro.pepanets.syntax import NetMarking, NetTransitionSpec, PepaNet

__all__ = ["CompiledNet", "FiringClasses", "passive_local_error"]

#: A marking: the leaf states of every place, place after place.
State = tuple[int, ...]

#: Leaf state -> "is a vacant cell" (static leaves are never negative).
_VACANT = (0).__gt__


def passive_local_error(place: str, action: str, rate: Rate) -> WellFormednessError:
    """A passive activity left without a partner at place level."""
    return WellFormednessError(
        f"place {place!r}: local activity ({action}, {rate}) is "
        "passive at place level and has no partner"
    )


class CompiledNet:
    """A PEPA net compiled for the marking-space search.

    :attr:`initial` is the initial marking's tuple, :meth:`successors`
    the search's successor function, :meth:`renderer` the function
    mapping tuples back to :class:`~repro.pepanets.syntax.NetMarking`
    objects and :meth:`occupancy` the one reading their filled cells.
    :attr:`firing_keys` counts the concession evaluations, one per
    distinct firing memo key.
    """

    def __init__(self, net: PepaNet):
        env = net.environment
        self.table = table = LeafTable(env, net.firing_actions)
        self.ds = DerivativeSets(env)
        self.names = net.place_order()
        self._skeletons: list[Skeleton] = []
        self._cells: dict[str, list[tuple[int, str]]] = {}
        offset = 0
        initial: list[int] = []
        for name in self.names:
            place = net.places[name]
            skeleton = Skeleton(place.template, table, offset)
            self._skeletons.append(skeleton)
            self._cells[name] = skeleton.cells
            initial.extend(skeleton.encode(place.initial_expression()))
            offset += skeleton.size
        self.initial: State = tuple(initial)
        self._local = [self._place_local(name, sk) for name, sk in zip(self.names, self._skeletons)]
        self._admitted: dict[tuple[str, int], bool] = {}
        classes = {action: FiringClasses(table, action) for action in net.firing_actions}
        self._transitions = [_Transition(spec, self._cells, classes[spec.action])
                             for spec in net.transitions.values()]
        self.firing_keys = 0

    # ------------------------------------------------------------------
    def _place_local(self, name: str, skeleton: Skeleton):
        """The place's local transitions: a function of the marking
        listing ``(action, rate value, leaf writes)``."""
        lo, hi = skeleton.offset, skeleton.offset + skeleton.size
        derive = skeleton.derive
        checked: dict[State, list[tuple[str, float, Writes]]] = {}

        def local(state: State) -> list[tuple[str, float, Writes]]:
            key = state[lo:hi]
            arcs = checked.get(key)
            if arcs is None:
                arcs = []
                for action, rate, writes in derive(state):
                    if rate.is_passive():
                        raise passive_local_error(name, action, rate)
                    arcs.append((action, rate.value, writes))
                checked[key] = arcs
            return arcs

        return local

    def _admits(self, family: str, content: int) -> bool:
        key = (family, content)
        ok = self._admitted.get(key)
        if ok is None:
            ok = self._admitted[key] = self.ds.admits(family, self.table.terms[content])
        return ok

    def _view(self, state: State):
        """Definitions 2–4's view of a marking: eligible tokens and vacant
        cells by leaf position, and the admission table."""
        table = self.table
        cells = self._cells

        def eligible(place: str, action: str):
            out = []
            for pos, _ in cells[place]:
                content = state[pos]
                if content < 0:
                    continue
                for act, rate, target in table.firing_rows(content):
                    if act == action:
                        out.append((pos, rate, target))
            return out

        def vacant(place: str):
            return [(pos, family) for pos, family in cells[place] if state[pos] < 0]

        return eligible, vacant, self._admits

    # ------------------------------------------------------------------
    def successors(self, state: State) -> list[tuple[str, float, State]]:
        """Local transitions of every place, then the enabled firings."""
        out = []
        for local in self._local:
            out += [(action, rate, apply_writes(state, writes))
                    for action, rate, writes in local(state)]
        view = None
        ready: dict[_Transition, list] = {}
        vacancy = tuple(map(_VACANT, state))
        for t in self._transitions:
            key = (t.inputs(state), t.outputs(vacancy))
            memo = t.memo.get(key)
            if memo is None:
                coarse = (tuple(map(t.classify, key[0])), key[1])
                memo = t.coarse.get(coarse)
                if memo is None:
                    self.firing_keys += 1
                    view = view or self._view(state)
                    memo = t.coarse[coarse] = [concession(t.spec, *view), None]
                t.memo[key] = memo
            if memo[0]:
                ready[t] = memo
        for t in top_priority(list(ready)):
            memo = ready[t]
            firings = memo[1]
            if firings is None:
                view = view or self._view(state)
                firings = memo[1] = [
                    (rate, tuple([(cell, -1) for _, cell, _ in combo] + [
                        (cell, target)
                        for (_, _, target), (_, cell, _) in zip(combo, mapping)
                    ]))
                    for rate, combo, mapping in resolved_firings(t.spec, *view)
                ]
            for rate, writes in firings:
                out.append((t.action, rate, apply_writes(state, writes)))
        return out

    def renderer(self):
        """A function mapping marking tuples to
        :class:`~repro.pepanets.syntax.NetMarking` objects.  It holds
        the place skeletons' rendering closures only, not the search's
        memos."""
        names = self.names
        renders = [sk.render for sk in self._skeletons]

        def render(states: list[State]) -> list[NetMarking]:
            return [NetMarking(names, tuple(r(state) for r in renders)) for state in states]

        return render

    def occupancy(self, states: list[State]) -> np.ndarray:
        """The occupied-cell matrix of the marking tuples ``states``:
        ``occupied[i, c]`` tells whether cell ``c`` of ``states[i]`` is
        filled, with the cells place after place as
        :meth:`~repro.pepanets.syntax.PepaNet.cells` lists them."""
        width = len(self.initial)
        columns = [pos for name in self.names for pos, _ in self._cells[name]]
        rows = np.fromiter(chain.from_iterable(states), dtype=np.int32,
                           count=len(states) * width).reshape(len(states), width)
        return rows[:, columns] >= 0


class FiringClasses(dict):
    """Content id -> firing class, for one firing action type.

    A content's class numbers its distinct tuple of ``(rate,
    derivative id)`` rows of the action (in row order), which is all
    Definitions 2–6 read of a token.  Class 0 is the empty tuple: the
    vacant cell (``-1``) and every content that cannot fire the action.
    The map grows with the :class:`~repro.pepa.compiled.LeafTable`: a
    content is classified on first lookup (``__missing__``), so a
    lookup that hits stays one C-level ``dict`` call.
    """

    __slots__ = ("table", "action", "ids")

    def __init__(self, table: LeafTable, action: str):
        super().__init__({-1: 0})
        self.table = table
        self.action = action
        self.ids: dict[tuple, int] = {(): 0}

    def __missing__(self, content: int) -> int:
        action = self.action
        rows = tuple((rate, target) for act, rate, target in self.table.firing_rows(content)
                     if act == action)
        cls = self[content] = self.ids.setdefault(rows, len(self.ids))
        return cls


class _Transition:
    """One net transition: its memo key getters and its memos.

    A marking's key is the states of the input places' cells, read off
    the marking, and the vacancy of the output places' cells, read off
    its vacancy mask.  :attr:`memo` maps it to the transition's record
    ``[concession, resolved firings or None]``, which is shared by every
    key of one *firing key*: the key with each input cell's state
    replaced by its firing class (:attr:`classify`).  So concession and
    the firings are evaluated once per firing key (:attr:`coarse`),
    while a marking whose key was seen before pays one lookup."""

    __slots__ = ("spec", "name", "priority", "action", "inputs", "outputs", "classify",
                 "memo", "coarse")

    def __init__(self, spec: NetTransitionSpec, cells: dict[str, list[tuple[int, str]]],
                 classes: FiringClasses):
        self.spec = spec
        self.name, self.priority, self.action = spec.name, spec.priority, spec.action
        # Every place has a cell, so neither getter is empty.  ``inputs``
        # must return a tuple, which an itemgetter does from two items
        # on: a lone cell is read twice.
        inputs = [pos for place in dict.fromkeys(spec.inputs) for pos, _ in cells[place]]
        self.inputs = itemgetter(*inputs * (2 if len(inputs) == 1 else 1))
        self.outputs = itemgetter(
            *[pos for place in dict.fromkeys(spec.outputs) for pos, _ in cells[place]]
        )
        self.classify = classes.__getitem__
        self.memo: dict[tuple, list] = {}
        self.coarse: dict[tuple, list] = {}
