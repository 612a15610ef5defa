"""Definition environments and whole models.

A PEPA model is a set of constant definitions ``I = S`` plus a system
equation (the composite expression whose derivatives form the state
space).  The environment resolves constants, computes alphabets
(following constants, cycle-safely) and resolves ``<*>`` wildcard
cooperation sets to the intersection of the partners' alphabets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import WellFormednessError
from repro.pepa.syntax import (
    WILDCARD_SET,
    Cell,
    Choice,
    Const,
    Cooperation,
    Expression,
    Hiding,
    Prefix,
)

__all__ = ["Environment", "PepaModel"]


@dataclass
class Environment:
    """Constant and rate-constant bindings for a model."""

    components: dict[str, Expression] = field(default_factory=dict)
    rates: dict[str, float] = field(default_factory=dict)

    def define(self, name: str, body: Expression) -> None:
        """Bind a component constant; duplicates are rejected."""
        if name in self.components:
            raise WellFormednessError(f"component {name!r} defined twice")
        self.components[name] = body

    def define_rate(self, name: str, value: float) -> None:
        """Bind a rate constant; duplicates are rejected."""
        if name in self.rates:
            raise WellFormednessError(f"rate constant {name!r} defined twice")
        self.rates[name] = value

    def resolve(self, name: str) -> Expression:
        """The defining body of a constant; raises on unknown names."""
        try:
            return self.components[name]
        except KeyError:
            raise WellFormednessError(f"undefined component constant {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.components

    # ------------------------------------------------------------------
    # Alphabets
    # ------------------------------------------------------------------
    def alphabet(self, expr: Expression) -> frozenset[str]:
        """The full action-type alphabet of ``expr``, following constant
        definitions (cycle-safe)."""
        return self._alphabet(expr, frozenset())

    def _alphabet(self, expr: Expression, visiting: frozenset[str]) -> frozenset[str]:
        if isinstance(expr, Prefix):
            return frozenset({expr.action}) | self._alphabet(expr.continuation, visiting)
        if isinstance(expr, Choice):
            return self._alphabet(expr.left, visiting) | self._alphabet(expr.right, visiting)
        if isinstance(expr, Const):
            if expr.name in visiting:
                return frozenset()
            return self._alphabet(self.resolve(expr.name), visiting | {expr.name})
        if isinstance(expr, Cooperation):
            return self._alphabet(expr.left, visiting) | self._alphabet(expr.right, visiting)
        if isinstance(expr, Hiding):
            return self._alphabet(expr.expr, visiting) - expr.actions
        if isinstance(expr, Cell):
            # A cell's alphabet is that of its *family*: even a vacant
            # cell constrains cooperation sets because a token may arrive.
            fam = self._alphabet(Const(expr.family), visiting)
            if expr.content is not None:
                fam |= self._alphabet(expr.content, visiting)
            return fam
        raise TypeError(f"not a PEPA expression: {expr!r}")

    # ------------------------------------------------------------------
    # Wildcard resolution
    # ------------------------------------------------------------------
    def resolve_wildcards(self, expr: Expression) -> Expression:
        """Replace every ``<*>`` cooperation set with the intersection of
        the partners' alphabets, recursively."""
        if isinstance(expr, Cooperation):
            left = self.resolve_wildcards(expr.left)
            right = self.resolve_wildcards(expr.right)
            actions = expr.actions
            if actions == WILDCARD_SET:
                actions = self.alphabet(left) & self.alphabet(right)
            return Cooperation(left, right, frozenset(actions))
        if isinstance(expr, Hiding):
            return Hiding(self.resolve_wildcards(expr.expr), expr.actions)
        # Sequential components and cells contain no composite operators
        # below them by construction (Fig 3 grammar), so pass through.
        return expr

    def resolved_rate(self, name: str) -> float:
        """The value of a rate constant; raises on unknown names."""
        try:
            return self.rates[name]
        except KeyError:
            raise WellFormednessError(f"undefined rate constant {name!r}") from None


@dataclass
class PepaModel:
    """A complete PEPA model: definitions plus the system equation."""

    environment: Environment
    system: Expression

    def __post_init__(self) -> None:
        self.system = self.environment.resolve_wildcards(self.system)

    @property
    def alphabet(self) -> frozenset[str]:
        return self.environment.alphabet(self.system)

    def component(self, name: str) -> Expression:
        """Look up a component definition by constant name."""
        return self.environment.resolve(name)

    def __str__(self) -> str:
        lines = []
        for name, body in self.environment.components.items():
            lines.append(f"{name} = {body};")
        lines.append(str(self.system))
        return "\n".join(lines)
