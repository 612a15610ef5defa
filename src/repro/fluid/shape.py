"""Recognising the replicated-population shape of a system equation.

The fluid analyzer (like the exact population construction in
:mod:`repro.pepa.population`) applies to systems of the form

    (P || P || ... || P)  <L>  Q

— ``n`` textually identical replicas of one sequential constant ``P``
in pure interleaving, cooperating over ``L`` with an arbitrary (small)
environment component ``Q``; the environment (and the cooperation) may
be absent, and the replica block may sit on either side.  This module
extracts that shape from a parsed :class:`~repro.pepa.environment.PepaModel`
so the CLI's ``--fluid`` flag works on ordinary model files: the model
is written with a handful of replicas, and ``--replicas N`` rescales
the population without ever rebuilding an ``N``-wide expression.

Models outside the shape raise :class:`FluidUnsupported` with a
diagnostic naming the offending subterm: these are capability
boundaries for the caller to fall back on, not bugs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ReproError
from repro.pepa.environment import PepaModel
from repro.pepa.syntax import Const, Cooperation, Expression

__all__ = ["FluidUnsupported", "PopulationShape", "population_shape"]


class FluidUnsupported(ReproError):
    """The model cannot be analysed by the fluid/mean-field route.

    Raised by the shape recogniser and the NVF compiler when a system
    equation falls outside the ``(P || ... || P) <L> Q`` population
    shape (or violates its rate discipline).  Callers fall back to the
    exact CTMC path — the exception is a capability boundary, so the
    message always names what was unsupported and why.
    """


@dataclass(frozen=True)
class PopulationShape:
    """The decomposed population form of a system equation.

    ``replica`` is the constant name of the replicated component,
    ``n_replicas`` how many copies the equation spells out,
    ``environment`` the (possibly absent) cooperating component and
    ``cooperation`` the shared action set (empty iff no environment or
    a pure ``||`` composition).
    """

    replica: str
    n_replicas: int
    environment: Expression | None
    cooperation: frozenset[str]

    def describe(self) -> str:
        """The shape in one line, e.g. ``Client^100 <use> Server``."""
        env = f" <{', '.join(sorted(self.cooperation))}> {self.environment}" \
            if self.environment is not None else ""
        return f"{self.replica}^{self.n_replicas}{env}"


def _interleaved_constants(expr: Expression) -> list[str] | None:
    """Flatten a pure-interleaving tree of constants, or ``None``.

    Accepts ``Const`` leaves joined by cooperations with *empty* action
    sets only; anything else (prefixes, hiding, cells, a non-empty
    cooperation) disqualifies the subtree as a replica block.
    """
    if isinstance(expr, Const):
        return [expr.name]
    if isinstance(expr, Cooperation) and not expr.actions:
        left = _interleaved_constants(expr.left)
        if left is None:
            return None
        right = _interleaved_constants(expr.right)
        if right is None:
            return None
        return left + right
    return None


def _as_replica_block(expr: Expression) -> tuple[str, int] | None:
    """``(constant, count)`` when ``expr`` is ``P || ... || P``."""
    names = _interleaved_constants(expr)
    if not names:
        return None
    if len(set(names)) != 1:
        return None
    return names[0], len(names)


def population_shape(model: PepaModel) -> PopulationShape:
    """Decompose ``model``'s system equation into its population shape.

    Raises :class:`FluidUnsupported` when the equation is not a pure
    interleaving of one constant, optionally cooperating with a single
    environment component.  When both sides of the top cooperation are
    replica blocks the larger one is taken as the population (ties go
    left) and the other becomes the environment.
    """
    system = model.system
    whole = _as_replica_block(system)
    if whole is not None:
        name, count = whole
        return PopulationShape(name, count, None, frozenset())
    if not isinstance(system, Cooperation):
        raise FluidUnsupported(
            f"system equation {system} is not a replicated population: "
            "expected (P || ... || P) <L> Q with a single repeated constant"
        )
    left = _as_replica_block(system.left)
    right = _as_replica_block(system.right)
    if left is None and right is None:
        raise FluidUnsupported(
            f"neither side of the top-level cooperation {system} is a pure "
            "interleaving of one constant; the fluid analyzer needs the "
            "(P || ... || P) <L> Q population shape"
        )
    if left is not None and right is not None:
        if right[1] > left[1]:
            left = None
        else:
            right = None
    if left is not None:
        name, count = left
        return PopulationShape(name, count, system.right, system.actions)
    assert right is not None
    name, count = right
    return PopulationShape(name, count, system.left, system.actions)
