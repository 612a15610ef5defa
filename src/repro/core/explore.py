"""The breadth-first state-space exploration kernel: two loops.

Deriving a labelled transition system from an initial state is the
operation the whole tool chain hinges on — PEPA derivation graphs,
PEPA-net marking graphs and Petri-net reachability/coverability graphs
are all instances.  Two loops do it, and share every cross-cutting
concern through the helpers at the bottom of this module:

* a **state ceiling** (``max_states``) raising
  :class:`~repro.exceptions.StateSpaceError` with a per-formalism
  message before memory blows up;
* a cooperative :class:`~repro.resilience.budget.ExecutionBudget`
  checkpoint once per expanded state, or once per level;
* a tracer span around the whole search, ``explore.progress`` events
  as the discovered states pass each multiple of
  :data:`PROGRESS_INTERVAL`, and the ``states_explored`` /
  ``transitions`` metrics counters.

:func:`explore_lts` expands one state at a time through a Python
successor function over hashable states.  It serves every formalism
whose states are objects: the term-level references, PEPA-net markings,
and Petri nets, whose optional per-successor hooks (``adjust_successor``,
``on_new_state``) see the parent chain — Karp–Miller ω-acceleration and
the unboundedness abort — which only a per-state loop can offer.

:func:`explore_levels` expands a whole breadth-first level at a time.
A state is a row of integers, a level is a matrix, and the caller's
``expand`` turns a frontier matrix into the level's arcs with numpy
(Ding & Hillston's numerical vector form: the compiled PEPA system
equation of :mod:`repro.pepa.compiled`).  Targets are deduplicated with
whole-row keys (a stable sort plus ``searchsorted`` against the sorted
known rows), and new states are numbered in order of first appearance,
so states, arcs, action codes, ceiling and first error are exactly those
of :func:`explore_lts` on the same successors; the budget and the
progress events see the search a level at a time.  A per-state walk
costs microseconds of Python per arc; a level costs over a hundred
numpy calls, whatever its width, plus well under a microsecond per arc.  That is what lets exact derivation reach tens of
thousands of states, and why a narrow, deep search is slower this way.

Both loops write no object per arc: arcs land in four flat arrays, which
become the result's :class:`~repro.core.lts.ArcArrays` and go to the
CTMC assembly as they are.  A compiled formalism wraps the result with a
``render`` function (:class:`~repro.core.lts.Lts`), so its terms are
built only if something reads the states.
"""

from __future__ import annotations

import time
from array import array
from collections import deque
from typing import (
    TYPE_CHECKING, Any, Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence,
)

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
    "Level",
    "SuccessorFn",
    "emit_progress",
    "explore_levels",
    "explore_lts",
]

#: Default ceiling on explored states; generous for the paper's models
#: (hundreds of states) while catching accidental explosions quickly.
DEFAULT_MAX_STATES = 1_000_000

#: How many newly discovered states between ``explore.progress`` events
#: (:func:`explore_levels` emits at most one per level).  Small enough
#: to show life on a slow derivation, large enough to stay off the BFS
#: hot path; tests shrink it via monkeypatching (both loops read it at
#: call time).
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
    """Breadth-first exploration of the reachable state space, one state
    at a time.

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

    with _span(stage, span_attrs, max_states) as sp:

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
                        _overflow(sp, stage, span_count_key, max_states, len(states),
                                  len(sources), overflow)
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
        arcs = ArcArrays(
            np.array(sources, dtype=np.int64), np.array(targets, dtype=np.int64),
            np.array(rates, dtype=np.float64), np.array(codes, dtype=np.int64),
            tuple(action_codes),
        )
        _finish(sp, events, stage, start, span_count_key, len(states), arcs)
    return Lts(states, arcs, index=index)


class Level(NamedTuple):
    """One expanded breadth-first level, as :func:`explore_levels` reads it.

    Arc ``j`` leaves frontier row ``source[j]`` (nondecreasing: each
    state's arcs together, in its own generation order) for the state
    row ``target[j]`` (an ``int32`` matrix, one row per arc) at
    ``rate[j]``, labelled ``names[action[j]]``.  ``failed`` is the first
    frontier row whose expansion must raise, or -1: the arcs of that row
    and of every later one are never read.
    """

    source: np.ndarray
    target: np.ndarray
    rate: np.ndarray
    action: np.ndarray
    failed: int = -1


def explore_levels(
    initial: np.ndarray,
    expand: Callable[[np.ndarray], Level],
    names: Sequence[str],
    fail: Callable[[int, np.ndarray], None],
    *,
    root: Callable[[], Level] | None = None,
    stage: str,
    max_states: int = DEFAULT_MAX_STATES,
    budget: "ExecutionBudget | None" = None,
    budget_stage: str | None = None,
    overflow: Callable[[int], str] | None = None,
) -> Lts:
    """Breadth-first exploration of integer-row states, a level at a time.

    ``initial`` is state 0's row.  ``expand(frontier)`` returns the
    :class:`Level` of a frontier matrix; its action codes index
    ``names``, which ``expand`` may extend.  ``fail(index, row)`` is
    called for a level's ``failed`` row and must raise that state's
    error.  With ``root``, state 0 is opaque: ``root()`` expands it
    instead of ``expand``, and no target is ever matched to its row.

    The result is :func:`explore_lts` on the same successors, exactly:
    the returned :class:`~repro.core.lts.Lts` holds the states as one
    ``int32`` matrix, arcs in generation order, action codes in order of
    first appearance; the ceiling raises at the same arc with the same
    span attributes, and the same state's error is raised.  The span
    adds ``levels`` (how many frontiers were expanded) and
    ``max_frontier`` (the widest).

    ``budget`` is checkpointed once per level, before its expansion,
    with ``explored`` the states found so far and ``frontier`` the
    level's width, so a deadline is overrun by one level at most.  An
    ``explore.progress`` event follows each completed level after which
    the states found so far have passed a multiple of
    :data:`PROGRESS_INTERVAL`, with ``frontier`` the next level's width;
    the search ends with one more, ``frontier`` 0.
    """
    interval = PROGRESS_INTERVAL
    events = get_events()
    start = time.perf_counter() if events.enabled else 0.0
    budget_stage = stage if budget_stage is None else budget_stage
    width = len(initial)
    void = np.dtype((np.void, 4 * width))
    frontier = np.asarray(initial, dtype=np.int32).reshape(1, width)
    blocks = [frontier]
    # The known rows and their state ids, in two sorted runs: ``known``,
    # and the ``recent`` rows not yet merged into it.  A row of -1s ends
    # each run: it sorts last, and no state is ever all -1s.  A level
    # merges its new rows into ``recent``, which merges into ``known``
    # once it outgrows the square root of it: a deep, narrow search then
    # copies O(√n) rows a level, not O(n).
    end = np.full((1, width), -1, dtype=np.int32).view(void).ravel()
    no_id = np.array([-1], dtype=np.int64)
    recent, recent_ids = end, no_id
    if root is None:
        known = np.concatenate([frontier.view(void).ravel(), end])
        known_ids = np.array([0, -1], dtype=np.int64)
    else:
        known, known_ids = end, no_id
    sources: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    rates: list[np.ndarray] = []
    codes: list[np.ndarray] = []
    n = 1            # states discovered
    first_row = 0    # the frontier's first state
    n_arcs = 0
    levels = max_frontier = 0

    with _span(stage, None, max_states) as sp:
        while len(frontier):
            k = len(frontier)
            if budget is not None:
                budget.checkpoint(stage=budget_stage, explored=n, frontier=k)
            levels += 1
            max_frontier = max(max_frontier, k)
            level = root() if root is not None and first_row == 0 else expand(frontier)
            uniq, first, inverse = _distinct(level.target.copy().view(void).ravel())
            ids, _ = _lookup(known, known_ids, uniq)
            if len(recent) > 1:     # ``at``: where each goes in ``recent``
                found, at = _lookup(recent, recent_ids, uniq)
                ids = np.maximum(ids, found)    # -1 unless in either run
            else:
                at = np.zeros(len(uniq), dtype=np.int64)
            unseen = np.flatnonzero(ids < 0)
            fresh = unseen[first[unseen].argsort(kind="stable")]
            ids[fresh] = np.arange(n, n + len(fresh))
            fresh_arc = first[fresh]                    # the arc discovering it
            fresh_src = level.source[fresh_arc]         # nondecreasing

            # Whichever the per-state search would meet first: the row
            # that fails, or the row that finds one state too many.
            room = max(max_states - n, 0)   # new states before the ceiling
            full = int(fresh_src[room]) if len(fresh) > room else -1
            bad = level.failed
            if bad >= 0 and (full < 0 or bad <= full):
                fail(first_row + bad, frontier[bad])
                raise AssertionError(f"{stage}: state {first_row + bad} was flagged "
                                     "as failing but derived cleanly")
            if full >= 0:
                _overflow(sp, stage, "states", max_states, n + room,
                          n_arcs + int(fresh_arc[room]), overflow)

            sources.append(level.source + first_row)
            targets.append(ids[inverse])
            rates.append(level.rate)
            codes.append(level.action)
            n_arcs += len(level.source)

            if len(unseen):
                recent, recent_ids = _merged(recent, recent_ids, at[unseen],
                                             uniq[unseen], ids[unseen])
                if (len(recent) - 1) ** 2 >= len(known) - 1:
                    rows, row_ids = recent[:-1], recent_ids[:-1]
                    known, known_ids = _merged(known, known_ids, known.searchsorted(rows),
                                               rows, row_ids)
                    recent, recent_ids = end, no_id
            frontier = level.target[fresh_arc]
            blocks.append(frontier)
            first_row = n
            n += len(fresh)
            if events.enabled and n // interval > first_row // interval:
                emit_progress(events, stage, n, len(fresh), start)

        # Recode the actions in order of first appearance.
        action = _joined(codes, np.int64)
        used, used_at = np.unique(action, return_index=True)
        ranked = used[used_at.argsort()]
        recode = np.zeros(len(names), dtype=np.int64)
        recode[ranked] = np.arange(len(ranked))
        arcs = ArcArrays(
            _joined(sources, np.int64), _joined(targets, np.int64),
            _joined(rates, np.float64), recode[action],
            tuple(names[code] for code in ranked.tolist()),
        )
        sp.set(levels=levels, max_frontier=max_frontier)
        _finish(sp, events, stage, start, "states", n, arcs)
    return Lts(np.concatenate(blocks), arcs)


# ----------------------------------------------------------------------
# What both loops share
# ----------------------------------------------------------------------
def _span(stage: str, span_attrs: Mapping[str, Any] | None, max_states: int):
    attrs = dict(span_attrs) if span_attrs else {}
    attrs["max_states"] = max_states
    return get_tracer().span(stage, **attrs)


def _overflow(sp, stage: str, count_key: str, max_states: int, states: int,
              arcs: int, overflow: Callable[[int], str] | None) -> None:
    """Raise the ceiling's error, recording the search so far on the span."""
    sp.set(**{count_key: states, "arcs": arcs})
    raise StateSpaceError(
        overflow(max_states) if overflow is not None else
        f"{stage}: state space exceeds {max_states} states"
    )


def _finish(sp, events, stage: str, start: float, count_key: str, n_states: int,
            arcs: ArcArrays) -> None:
    """The span totals, the last progress event and the counters."""
    n_arcs = len(arcs.source)
    sp.set(**{count_key: n_states, "arcs": n_arcs})
    if events.enabled:
        emit_progress(events, stage, n_states, 0, start)
    metrics = get_metrics()
    metrics.counter("states_explored").inc(n_states)
    metrics.counter("transitions").inc(n_arcs)


def _distinct(keys: np.ndarray):
    """``np.unique(keys, return_index=True, return_inverse=True)``, with
    each key's first occurrence as its index, at a fraction of the fixed
    cost."""
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    head = np.empty(len(keys), dtype=bool)
    head[:1] = True
    head[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[order] = head.cumsum() - 1
    return ordered[head], order[head], inverse


def _lookup(keys: np.ndarray, ids: np.ndarray, wanted: np.ndarray):
    """The ids of ``wanted`` in the sorted run ``keys`` (-1 where
    absent), and where each would be inserted."""
    at = keys.searchsorted(wanted)
    return np.where(keys[at] == wanted, ids[at], -1), at


def _merged(keys: np.ndarray, ids: np.ndarray, at: np.ndarray,
            new_keys: np.ndarray, new_ids: np.ndarray):
    """Sorted ``keys`` with ``new_keys`` inserted before positions ``at``
    (nondecreasing), and ``ids`` likewise."""
    slots = at + np.arange(len(at))
    old = np.ones(len(keys) + len(at), dtype=bool)
    old[slots] = False
    merged_keys = np.empty(len(old), dtype=keys.dtype)
    merged_keys[slots] = new_keys
    merged_keys[old] = keys
    merged_ids = np.empty(len(old), dtype=ids.dtype)
    merged_ids[slots] = new_ids
    merged_ids[old] = ids
    return merged_keys, merged_ids


def _joined(parts: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(parts).astype(dtype, copy=False) if parts else np.empty(0, dtype)
