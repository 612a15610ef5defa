"""State-space derivation: from a PEPA expression to a labelled
multi-transition system (LTS).

The derivation graph of a PEPA model, with each distinct derivative as a
state and activities as labelled arcs, *is* the CTMC skeleton: treating
each state as a CTMC state and summing activity rates per (source,
target) pair yields the generator matrix (done in
:mod:`repro.pepa.ctmcgen`).

:func:`explore` derives a breadth-first level at a time
(:func:`repro.core.explore.explore_levels`) over the system equation
compiled to integer leaf rows (:class:`repro.pepa.compiled.LevelKernel`);
:func:`explore_reference` walks the term-level semantics one state at a
time (:func:`repro.core.explore.explore_lts`) and is the oracle the
compiled search is checked against.  Both take a configurable state
bound — the paper is explicit that susceptibility to state-space
explosion is the price of exact numerical solution, so we surface the
bound as a first-class error instead of letting memory blow up.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.batch.cache import cached
from repro.core.explore import DEFAULT_MAX_STATES, Level, explore_levels, explore_lts
from repro.core.keys import DerivationKey
from repro.core.lts import ArcArrays, LabelledArc, Lts
from repro.exceptions import ReproError, WellFormednessError
from repro.pepa.environment import Environment, PepaModel
from repro.pepa.compiled import LeafTable, LevelKernel, expansion
from repro.pepa.semantics import derivatives
from repro.pepa.syntax import Expression

if TYPE_CHECKING:  # pragma: no cover — typing only, avoids a hard import
    from repro.resilience.budget import ExecutionBudget

__all__ = ["LabelledArc", "StateSpace", "explore", "explore_reference", "derive"]


class StateSpace(Lts):
    """The reachable derivation graph of a model.

    ``states[i]`` is the expression for state ``i``; ``arcs`` is the
    multiset of labelled transitions; ``initial`` is always 0.  All
    accessors (``successors``, ``arcs_by_action``, ``deadlocks``,
    ``actions``, ...) come from :class:`repro.core.lts.Lts`.
    """

    states: list[Expression]


def _overflow(max_states: int) -> str:
    return (
        f"state space exceeds the configured bound of {max_states} states; "
        "raise max_states or aggregate the model"
    )


def explore(
    initial: Expression,
    env: Environment,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    budget: "ExecutionBudget | None" = None,
) -> StateSpace:
    """Breadth-first derivation of the reachable state space.

    ``budget`` adds a cooperative wall-clock guard checked once per
    breadth-first level; when it runs out a
    :class:`~repro.exceptions.BudgetExceededError` carrying the partial
    frontier size and a resumable summary is raised instead of the
    search silently grinding on.

    The search runs compiled (:mod:`repro.pepa.compiled`): a state is a
    row of leaf ids of the system equation, and each breadth-first level
    is expanded by numpy over the whole frontier.  The arcs land in flat
    arrays; the states are rendered back to expressions only when
    something reads them.  States, arcs, errors and ceiling equal
    :func:`explore_reference`'s.
    A constant naming the system's structure (``Sys = P <a> R; Sys``)
    is state 0 of its own, derived by the reference semantics.
    """
    body = expansion(initial, env)
    kernel = LevelKernel(body, LeafTable(env))
    opaque = body is not initial

    def root() -> Level:
        try:
            arcs = _successors(initial, env)
        except ReproError:
            return Level(np.zeros(0, dtype=np.int64),
                         np.zeros((0, kernel.width), dtype=np.int32),
                         np.zeros(0), np.zeros(0, dtype=np.int64), failed=0)
        return Level(
            np.zeros(len(arcs), dtype=np.int64),
            np.array([kernel.encode(t) for _, _, t in arcs],
                     dtype=np.int32).reshape(len(arcs), kernel.width),
            np.array([r for _, r, _ in arcs], dtype=np.float64),
            np.array([kernel.code(a) for a, _, _ in arcs], dtype=np.int64),
        )

    def fail(index: int, row) -> None:
        _successors(initial if opaque and index == 0 else kernel.render(row.tolist()), env)

    def render(rows) -> list[Expression]:
        rows = rows.tolist()
        head = [initial] if opaque else []
        return head + [kernel.render(row) for row in rows[len(head):]]

    with np.errstate(all="ignore"):
        lts = explore_levels(
            np.full(kernel.width, -1) if opaque else kernel.encode(initial),
            kernel.expand, kernel.names, fail, root=root if opaque else None,
            **_explore_options(max_states, budget),
        )
    return StateSpace(lts.states, lts.arc_arrays, render=render)


def explore_reference(
    initial: Expression,
    env: Environment,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    budget: "ExecutionBudget | None" = None,
) -> StateSpace:
    """:func:`explore` straight over the term-level semantics
    (:func:`~repro.pepa.semantics.derivatives`, one term tree per
    state), checking ``budget`` once per state: the oracle the compiled
    search is checked against."""

    lts = explore_lts(initial, lambda state: _successors(state, env),
                      **_explore_options(max_states, budget))
    return StateSpace(lts.states, lts.arc_arrays, index=lts.index)


def _explore_options(max_states: int, budget: "ExecutionBudget | None") -> dict:
    return {
        "stage": "pepa.statespace",
        "budget_stage": "pepa state space",
        "max_states": max_states,
        "budget": budget,
        "overflow": _overflow,
    }


def _successors(state: Expression, env: Environment) -> list[tuple[str, float, Expression]]:
    """The arcs of one state by the term-level semantics."""
    out = []
    for tr in derivatives(state, env):
        if tr.rate.is_passive():
            raise WellFormednessError(
                f"activity ({tr.action}, {tr.rate}) of state {state} is passive at "
                "the top level: the system equation leaves it without an active partner"
            )
        out.append((tr.action, tr.rate.value, tr.target))
    return out



#: Payload schema of cached PEPA state spaces; bump on layout changes.
#: ``/2``: the arcs are the space's :class:`~repro.core.lts.ArcArrays`.
CACHE_SCHEMA = "repro-statespace/2"


def derive(
    model: PepaModel,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    budget: "ExecutionBudget | None" = None,
) -> StateSpace:
    """Derive the state space of a complete model's system equation.

    Through :func:`repro.batch.cache.cached`: with an ambient
    :class:`~repro.batch.cache.DerivationCache` installed (see
    :func:`repro.batch.cache.use_cache`), the derivation is
    content-addressed by the model's canonical source text.  A hit
    reconstructs the state space from disk and skips exploration
    entirely (no ``pepa.statespace`` span, no explored-state counters —
    only ``cache.hit``); a miss explores as usual and publishes the
    result.  A cached space larger than ``max_states`` is a miss, so the
    ceiling keeps its meaning: exploration runs and raises the usual
    overflow error.
    """
    from repro.pepa.export import model_source

    return cached(
        lambda: DerivationKey.of("pepa", model_source(model)), CACHE_SCHEMA,
        build=lambda: explore(
            model.system, model.environment, max_states=max_states, budget=budget
        ),
        encode=lambda space: {"states": space.states, "arcs": space.arc_arrays._asdict()},
        decode=lambda payload: (
            StateSpace(payload["states"], ArcArrays(**payload["arcs"]))
            if len(payload["states"]) <= max_states else None
        ),
    )
