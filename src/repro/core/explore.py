"""The one breadth-first state-space exploration kernel.

Deriving a labelled transition system from an initial state and a
successor function is the operation the whole tool chain hinges on —
PEPA derivation graphs, PEPA-net marking graphs and Petri-net
reachability/coverability graphs are all instances.  Each used to carry
its own hand-rolled BFS loop; this module is the single kernel they now
share, so every cross-cutting concern lands in exactly one place:

* a **state ceiling** (``max_states``) raising
  :class:`~repro.exceptions.StateSpaceError` with a per-formalism
  message before memory blows up;
* a cooperative :class:`~repro.resilience.budget.ExecutionBudget`
  checkpoint once per expanded state;
* a tracer span around the whole search, ``explore.progress`` events
  every :data:`PROGRESS_INTERVAL` discovered states, and the
  ``states_explored`` / ``transitions`` metrics counters;
* optional per-successor hooks (``adjust_successor``,
  ``on_new_state``) with access to the parent chain, which is how the
  Petri layer expresses Karp–Miller ω-acceleration and the
  unboundedness (strict-covering) abort without owning a loop.

The search writes no object per arc: each arc appends its source,
target, rate and an action code to four flat arrays, which become the
result's :class:`~repro.core.lts.ArcArrays` and go to the CTMC
assembly as they are.  A compiled formalism searches over compact
numeric states and wraps the result with a ``render`` function
(:class:`~repro.core.lts.Lts`), so its terms are built only if
something reads the states.

Future optimisations — parallel frontiers, smarter state interning,
disk-backed spaces — belong here and nowhere else.
"""

from __future__ import annotations

import time
from array import array
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable, Iterator, Mapping

import numpy as np

from repro.core.lts import ArcArrays, Lts
from repro.exceptions import StateSpaceError
from repro.obs import get_events, get_metrics, get_tracer

if TYPE_CHECKING:  # pragma: no cover — typing only, avoids a hard import
    from repro.resilience.budget import ExecutionBudget

__all__ = [
    "DEFAULT_MAX_STATES",
    "PROGRESS_INTERVAL",
    "Exploration",
    "SuccessorFn",
    "emit_progress",
    "explore_lts",
]

#: Default ceiling on explored states; generous for the paper's models
#: (hundreds of states) while catching accidental explosions quickly.
DEFAULT_MAX_STATES = 1_000_000

#: How many newly discovered states between ``explore.progress`` events.
#: Small enough to show life on a slow derivation, large enough to stay
#: off the BFS hot path; tests shrink it via monkeypatching (the kernel
#: reads it at call time).
PROGRESS_INTERVAL = 1_000

#: A successor function: state -> iterable of (action, rate, target).
SuccessorFn = Callable[[Any], Iterable[tuple[str, float, Any]]]


def emit_progress(events, stage: str, explored: int, frontier: int,
                  start: float) -> None:
    """One ``explore.progress`` event with the BFS vital signs."""
    elapsed = time.perf_counter() - start
    events.emit(
        "explore.progress", stage=stage, explored=explored, frontier=frontier,
        states_per_sec=round(explored / elapsed, 3) if elapsed > 0 else None,
        elapsed_s=round(elapsed, 9),
    )


class Exploration:
    """The in-flight view the per-successor hooks see.

    Exposes the states interned so far and the BFS parent chain, so a
    hook can walk a state's ancestors (the Petri coverability check)
    without the kernel hard-coding any formalism."""

    __slots__ = ("states", "parent")

    def __init__(self, states: list[Any]):
        self.states = states
        self.parent: dict[int, int | None] = {0: None}

    def ancestors(self, state: int) -> Iterator[Any]:
        """The states on the BFS path from ``state`` back to the root,
        starting with ``state`` itself."""
        walker: int | None = state
        while walker is not None:
            yield self.states[walker]
            walker = self.parent[walker]


def explore_lts(
    initial: Hashable,
    successors: SuccessorFn,
    *,
    stage: str,
    max_states: int = DEFAULT_MAX_STATES,
    budget: "ExecutionBudget | None" = None,
    budget_stage: str | None = None,
    span_attrs: Mapping[str, Any] | None = None,
    span_count_key: str = "states",
    overflow: Callable[[int], str] | None = None,
    adjust_successor: Callable[[Any, int, Exploration], Any] | None = None,
    on_new_state: Callable[[Any, int, Exploration], None] | None = None,
    progress_interval: int | None = None,
) -> Lts:
    """Breadth-first exploration of the reachable state space.

    ``stage`` names the tracer span and the ``explore.progress`` event
    stage (e.g. ``"pepa.statespace"``); ``budget_stage`` is the
    human-readable stage embedded in budget errors (defaults to
    ``stage``).  ``span_attrs`` are extra attributes opened on the span;
    ``span_count_key`` is the attribute name under which the state count
    is reported (``states`` / ``markings``), keeping each formalism's
    established trace vocabulary.  ``overflow`` renders the
    :class:`StateSpaceError` message when the ceiling is hit.

    ``adjust_successor(candidate, source_index, exploration)`` may
    replace a successor before interning (Karp–Miller ω-acceleration);
    ``on_new_state(candidate, source_index, exploration)`` runs for each
    not-yet-interned successor and may raise to abort the search (the
    Petri unboundedness check).  Providing either enables parent-chain
    tracking on the :class:`Exploration` they receive.

    States are interned in discovery order — the returned
    :class:`~repro.core.lts.Lts` numbers the initial state 0 and keeps
    arcs in generation order, which downstream golden tests pin.
    """
    interval = PROGRESS_INTERVAL if progress_interval is None else progress_interval
    index: dict[Hashable, int] = {initial: 0}
    states: list[Any] = [initial]
    sources, targets, codes = array("q"), array("q"), array("q")
    rates = array("d")
    action_codes: dict[str, int] = {}
    queue: deque[Any] = deque([initial])
    events = get_events()
    start = time.perf_counter() if events.enabled else 0.0
    track_parents = adjust_successor is not None or on_new_state is not None
    exploration = Exploration(states) if track_parents else None
    budget_stage = stage if budget_stage is None else budget_stage

    attrs = dict(span_attrs) if span_attrs else {}
    attrs["max_states"] = max_states
    with get_tracer().span(stage, **attrs) as sp:

        while queue:
            state = queue.popleft()
            src = index[state]
            if budget is not None:
                budget.checkpoint(
                    stage=budget_stage, explored=len(states), frontier=len(queue)
                )
            for action, rate, target in successors(state):
                if adjust_successor is not None:
                    target = adjust_successor(target, src, exploration)
                tgt = index.get(target)
                if tgt is None:
                    if on_new_state is not None:
                        on_new_state(target, src, exploration)
                    if len(states) >= max_states:
                        sp.set(**{span_count_key: len(states), "arcs": len(sources)})
                        raise StateSpaceError(
                            overflow(max_states) if overflow is not None else
                            f"{stage}: state space exceeds {max_states} states"
                        )
                    tgt = len(states)
                    index[target] = tgt
                    states.append(target)
                    queue.append(target)
                    if exploration is not None:
                        exploration.parent[tgt] = src
                    if events.enabled and tgt % interval == 0:
                        emit_progress(events, stage, len(states), len(queue), start)
                code = action_codes.get(action)
                if code is None:
                    code = action_codes[action] = len(action_codes)
                sources.append(src)
                targets.append(tgt)
                rates.append(rate)
                codes.append(code)
        sp.set(**{span_count_key: len(states), "arcs": len(sources)})
    if events.enabled:
        emit_progress(events, stage, len(states), 0, start)
    metrics = get_metrics()
    metrics.counter("states_explored").inc(len(states))
    metrics.counter("transitions").inc(len(sources))
    arcs = ArcArrays(
        np.array(sources, dtype=np.int64), np.array(targets, dtype=np.int64),
        np.array(rates, dtype=np.float64), np.array(codes, dtype=np.int64),
        tuple(action_codes),
    )
    return Lts(states, arcs, index=index)
