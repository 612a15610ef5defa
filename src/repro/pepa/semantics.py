"""Structured operational semantics of PEPA.

This module derives the one-step transitions of a PEPA expression —
the labelled multi-transition system from which the CTMC is built —
implementing Hillston's rules:

* **Prefix**       ``(a, r).P --(a, r)--> P``
* **Choice**       transitions of either branch;
* **Constant**     transitions of the defining body;
* **Hiding**       transitions of the body, with hidden types renamed
  to the silent ``tau``;
* **Cooperation**  for ``a ∉ L`` the partners interleave; for ``a ∈ L``
  every pair of ``a``-transitions synchronises at the rate

  ``(r1/rα(P)) · (r2/rα(Q)) · min(rα(P), rα(Q))``

  where ``rα`` is the *apparent rate* — exactly the bounded-capacity
  law the paper's Definition 6 invokes ("the rate of the enabled firing
  is determined using apparent rates … as usual for PEPA").
* **Cell**         a full cell behaves as its content (the derivative
  stays inside the cell); a vacant cell is inert.  Net-level firing
  types can be excluded via ``exclude`` so that PEPA-net places only
  perform *local* transitions here (firings are handled by
  :mod:`repro.pepanets.firing`).

Transitions are a *multiset*: two syntactically identical activities
contribute twice (PEPA's multi-transition-system semantics), which the
CTMC construction then sums.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import WellFormednessError
from repro.pepa.environment import Environment
from repro.pepa.rates import Rate, cooperation_rate, rate_min, rate_sum
from repro.pepa.syntax import (
    TAU,
    Cell,
    Choice,
    Const,
    Cooperation,
    Expression,
    Hiding,
    Prefix,
)

__all__ = [
    "Transition",
    "derivatives",
    "apparent_rate",
    "enabled_actions",
]


@dataclass(frozen=True)
class Transition:
    """A single derivation ``source --(action, rate)--> target``.

    ``source`` is implicit (the expression the transition was derived
    from); only the label and target are stored.
    """

    action: str
    rate: Rate
    target: Expression

    def __str__(self) -> str:
        return f"--({self.action}, {self.rate})--> {self.target}"


# Kept comfortably below CPython's default recursion limit so our
# diagnostic fires before a raw RecursionError does (each depth level
# costs a few interpreter frames).
_MAX_CONST_DEPTH = 180


def derivatives(
    expr: Expression,
    env: Environment,
    *,
    exclude: frozenset[str] = frozenset(),
) -> list[Transition]:
    """All one-step transitions of ``expr`` (a multiset, order
    deterministic).  Action types in ``exclude`` are suppressed
    everywhere — used by PEPA nets to hold back firing types from the
    local (place-level) semantics."""
    return _derive(expr, env, exclude, 0)


def _derive(
    expr: Expression, env: Environment, exclude: frozenset[str], depth: int
) -> list[Transition]:
    if depth > _MAX_CONST_DEPTH:
        raise WellFormednessError(
            "constant resolution exceeded depth bound; the model contains "
            "unguarded recursion (e.g. X = X)"
        )
    if isinstance(expr, Prefix):
        if expr.action in exclude:
            return []
        return [Transition(expr.action, expr.rate, expr.continuation)]
    if isinstance(expr, Choice):
        return (
            _derive(expr.left, env, exclude, depth)
            + _derive(expr.right, env, exclude, depth)
        )
    if isinstance(expr, Const):
        return _derive(env.resolve(expr.name), env, exclude, depth + 1)
    if isinstance(expr, Hiding):
        out: list[Transition] = []
        for t in _derive(expr.expr, env, exclude, depth):
            action = TAU if t.action in expr.actions else t.action
            if action in exclude:
                continue
            out.append(Transition(action, t.rate, Hiding(t.target, expr.actions)))
        return out
    if isinstance(expr, Cell):
        if expr.content is None:
            return []
        out = []
        for t in _derive(expr.content, env, exclude, depth):
            target = t.target
            if not target.is_sequential():
                raise WellFormednessError("cell content evolved to a non-sequential term")
            out.append(Transition(t.action, t.rate, Cell(expr.family, target)))  # type: ignore[arg-type]
        return out
    if isinstance(expr, Cooperation):
        out = []
        left_ts = _derive(expr.left, env, exclude, depth)
        right_ts = _derive(expr.right, env, exclude, depth)
        # Independent (interleaved) activities.
        for t in left_ts:
            if t.action not in expr.actions:
                out.append(Transition(t.action, t.rate, Cooperation(t.target, expr.right, expr.actions)))
        for t in right_ts:
            if t.action not in expr.actions:
                out.append(Transition(t.action, t.rate, Cooperation(expr.left, t.target, expr.actions)))
        # Shared activities: every pair synchronises, rate by the
        # apparent-rate law.
        shared = {t.action for t in left_ts if t.action in expr.actions} & {
            t.action for t in right_ts if t.action in expr.actions
        }
        for action in sorted(shared):
            ra_left = apparent_rate(expr.left, action, env)
            ra_right = apparent_rate(expr.right, action, env)
            assert ra_left is not None and ra_right is not None
            if ra_left.is_passive() and ra_right.is_passive():
                # Both sides passive: the combined activity stays passive
                # and can only proceed if an enclosing cooperation
                # provides an active partner; cooperation_rate handles it.
                pass
            for tl in left_ts:
                if tl.action != action:
                    continue
                for tr in right_ts:
                    if tr.action != action:
                        continue
                    rate = cooperation_rate(tl.rate, tr.rate, ra_left, ra_right)
                    out.append(
                        Transition(action, rate, Cooperation(tl.target, tr.target, expr.actions))
                    )
        return out
    raise TypeError(f"not a PEPA expression: {expr!r}")


def apparent_rate(
    expr: Expression, action: str, env: Environment, _depth: int = 0
) -> Rate | None:
    """The apparent rate ``rα(expr)`` of ``action`` in ``expr``.

    Returns ``None`` when the expression cannot perform the action at
    all (apparent rate zero).  Raises :class:`WellFormednessError` if a
    component enables both active and passive activities of the same
    type (illegal in PEPA).
    """
    if _depth > _MAX_CONST_DEPTH:
        raise WellFormednessError("unguarded recursion while computing an apparent rate")
    if isinstance(expr, Prefix):
        return expr.rate if expr.action == action else None
    if isinstance(expr, Choice):
        left = apparent_rate(expr.left, action, env, _depth)
        right = apparent_rate(expr.right, action, env, _depth)
        if left is None:
            return right
        if right is None:
            return left
        return rate_sum(left, right)
    if isinstance(expr, Const):
        return apparent_rate(env.resolve(expr.name), action, env, _depth + 1)
    if isinstance(expr, Hiding):
        if action in expr.actions or action == TAU:
            # Hidden activities lose their type; tau has no apparent rate
            # because cooperation on tau is forbidden.
            return None
        return apparent_rate(expr.expr, action, env, _depth)
    if isinstance(expr, Cell):
        if expr.content is None:
            return None
        return apparent_rate(expr.content, action, env, _depth)
    if isinstance(expr, Cooperation):
        left = apparent_rate(expr.left, action, env, _depth)
        right = apparent_rate(expr.right, action, env, _depth)
        if action in expr.actions:
            if left is None or right is None:
                return None
            return rate_min(left, right)
        if left is None:
            return right
        if right is None:
            return left
        return rate_sum(left, right)
    raise TypeError(f"not a PEPA expression: {expr!r}")


def enabled_actions(expr: Expression, env: Environment) -> frozenset[str]:
    """The action types ``expr`` can currently perform."""
    return frozenset(t.action for t in derivatives(expr, env))


def derivative_set(family: str, env: Environment, *, max_size: int = 100_000):
    """The derivative set ``ds(family)``: every sequential state
    reachable from the constant, over all activities.

    This is the *type* of a PEPA-net cell (Definition 4's
    type-preservation side: a token may only enter a cell whose family's
    derivative set contains the token's next state), and the local-state
    universe of the population construction.
    """
    from repro.pepa.syntax import Const, Sequential

    start: Sequential = Const(family)
    seen: set[Sequential] = {start}
    frontier: list[Sequential] = [start]
    while frontier:
        current = frontier.pop()
        for tr in derivatives(current, env):
            target = tr.target
            if not isinstance(target, Sequential):
                raise WellFormednessError(
                    f"token family {family!r} evolves to a non-sequential term"
                )
            if target not in seen:
                if len(seen) >= max_size:
                    raise WellFormednessError(
                        f"derivative set of {family!r} exceeds {max_size} members"
                    )
                seen.add(target)
                frontier.append(target)
    return frozenset(seen)
