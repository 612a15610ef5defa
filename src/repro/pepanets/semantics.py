"""Marking-level semantics of PEPA nets.

The paper distinguishes two kinds of state change (Section 2.2):

* **transitions of PEPA components** — local evolution inside one
  place (small-scale changes of state): these are the PEPA derivatives
  of the place's context expression with firing types excluded;
* **firings of the net** — macro-step changes moving tokens between
  places, per Definitions 2–6 (:mod:`repro.pepanets.firing`).

Treating each marking as a distinct state yields the CTMC
("The structured operational semantics ... shows how a CTMC can be
derived, treating each marking as a distinct state").  The breadth-first
walk itself is the shared :func:`repro.core.explore.explore_lts`
kernel.  This module supplies the term-level successor relation,
:func:`net_arcs`, which is the reference; :func:`explore_net` searches
over compiled markings (:mod:`repro.pepanets.compiled`) with the same
result.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from repro.batch.cache import cached
from repro.core.explore import DEFAULT_MAX_STATES, explore_lts
from repro.core.keys import DerivationKey
from repro.core.lts import ArcArrays, LabelledArc, Lts
from repro.pepa.semantics import derivatives
from repro.pepanets.compiled import CompiledNet, passive_local_error
from repro.pepanets.firing import DerivativeSets, firing_instances
from repro.pepanets.syntax import NetMarking, PepaNet, find_cells

if TYPE_CHECKING:  # pragma: no cover — typing only, avoids a hard import
    from repro.resilience.budget import ExecutionBudget

__all__ = ["NetStateSpace", "explore_net", "explore_net_reference", "net_arcs"]


class NetStateSpace(Lts):
    """The reachable markings of a PEPA net with all labelled arcs.

    Arc actions are either local PEPA action types or firing action
    types; :attr:`firing_actions` tells them apart for measures.  The
    graph accessors come from :class:`repro.core.lts.Lts`;
    :attr:`markings` is the net-flavoured name for its ``states``.

    :attr:`occupied` tells which cells are filled in which marking, with
    the cells as :meth:`~repro.pepanets.syntax.PepaNet.cells` lists
    them (:attr:`cells`): the mobility measures read token locations off
    this matrix, so none of them renders a marking.
    """

    def __init__(
        self,
        net: PepaNet,
        markings: list,
        arcs: ArcArrays | Iterable[LabelledArc],
        index: dict[NetMarking, int] | None = None,
        *,
        render: Callable[[list], list[NetMarking]] | None = None,
        occupied: np.ndarray,
    ):
        super().__init__(markings, arcs, index, render=render)
        self.net = net
        self.cells = net.cells()
        #: ``occupied[i, c]``: is cell ``c`` filled in marking ``i``.
        self.occupied = occupied

    @property
    def markings(self) -> list[NetMarking]:
        return self.states

    @property
    def firing_actions(self) -> frozenset[str]:
        return self.net.firing_actions


def net_arcs(
    net: PepaNet, marking: NetMarking, ds: DerivativeSets
) -> list[tuple[str, float, NetMarking]]:
    """All outgoing (action, rate, successor) of one marking: local
    transitions of every place plus enabled net firings."""
    env = net.environment
    exclude = net.firing_actions
    out: list[tuple[str, float, NetMarking]] = []
    for place in marking.place_names:
        expr = marking.state_of(place)
        for tr in derivatives(expr, env, exclude=exclude):
            if tr.rate.is_passive():
                raise passive_local_error(place, tr.action, tr.rate)
            out.append((tr.action, tr.rate.value, marking.with_state(place, tr.target)))
    for firing in firing_instances(net, marking, env, ds):
        out.append((firing.action, firing.rate, firing.marking))
    return out


#: Payload schema of cached marking spaces; bump on layout changes.
#: ``/2``: the arcs are the space's :class:`~repro.core.lts.ArcArrays`.
#: ``/3``: the payload carries the occupied-cell matrix.
CACHE_SCHEMA = "repro-markingspace/3"


def explore_net(
    net: PepaNet,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    budget: "ExecutionBudget | None" = None,
) -> NetStateSpace:
    """Breadth-first derivation of the net's marking space.

    ``budget`` is an optional
    :class:`~repro.resilience.budget.ExecutionBudget` checked
    cooperatively once per expanded marking; exhaustion raises a
    resumable :class:`~repro.exceptions.BudgetExceededError`.  The
    ``pepanet.markingspace`` span's ``firing_keys`` counts the
    concession evaluations: one per distinct firing memo key
    (:mod:`repro.pepanets.compiled`).

    Through :func:`repro.batch.cache.cached`: with an ambient
    :class:`~repro.batch.cache.DerivationCache` installed, the marking
    space is content-addressed by the net's canonical source
    (:func:`repro.pepanets.export.net_source`): a hit reconstructs
    markings and arcs from disk and skips the BFS entirely; a miss
    explores and publishes.  A cached space above ``max_states`` is a
    miss, preserving the ceiling's semantics.
    """
    from repro.pepanets.export import net_source

    def build() -> NetStateSpace:
        compiled = CompiledNet(net)
        lts = explore_lts(
            compiled.initial,
            compiled.successors,
            **_explore_options(net, max_states, budget),
            span_totals=lambda: {"firing_keys": compiled.firing_keys},
        )
        return NetStateSpace(net, lts.states, lts.arc_arrays, render=compiled.renderer(),
                             occupied=compiled.occupancy(lts.states))

    return cached(
        lambda: DerivationKey.of("pepanet", net_source(net)), CACHE_SCHEMA, build,
        encode=lambda space: {"markings": space.markings,
                              "arcs": space.arc_arrays._asdict(),
                              "occupied": space.occupied},
        decode=lambda payload: (
            NetStateSpace(net, payload["markings"], ArcArrays(**payload["arcs"]),
                          occupied=payload["occupied"])
            if len(payload["markings"]) <= max_states else None
        ),
    )


def explore_net_reference(
    net: PepaNet,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    budget: "ExecutionBudget | None" = None,
) -> NetStateSpace:
    """:func:`explore_net` straight over :func:`net_arcs` (one
    :class:`NetMarking` term per marking, no derivation cache): the
    oracle the compiled search is checked against.  Its occupied-cell
    matrix is read off the marking terms, cell by cell."""
    ds = DerivativeSets(net.environment)
    lts = explore_lts(
        net.initial_marking(),
        lambda marking: net_arcs(net, marking, ds),
        **_explore_options(net, max_states, budget),
    )
    occupied = np.array(
        [[cell.content is not None for place in net.places
          for _, cell in find_cells(marking.state_of(place))] for marking in lts.states],
        dtype=bool,
    ).reshape(len(lts.states), len(net.cells()))
    return NetStateSpace(net, lts.states, lts.arc_arrays, index=lts.index,
                         occupied=occupied)


def _explore_options(net: PepaNet, max_states: int,
                     budget: "ExecutionBudget | None") -> dict:
    return {
        "stage": "pepanet.markingspace",
        "budget_stage": "pepa-net marking space",
        "max_states": max_states,
        "budget": budget,
        "span_attrs": {"places": len(net.places),
                       "net_transitions": len(net.transitions)},
        "span_count_key": "markings",
        "overflow": lambda n: f"PEPA-net marking space exceeds {n} states",
    }
