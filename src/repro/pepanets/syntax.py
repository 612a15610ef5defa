"""Abstract syntax for PEPA nets (paper Definition 1 and Figure 3).

A PEPA net is a tuple ``N = (P, T, I, O, l, π, C, D, M0)``:

* ``P``  — places, each with a *context*: a PEPA expression containing
  at least one :class:`~repro.pepa.syntax.Cell` plus optional static
  components (:class:`PlaceDef`);
* ``T, I, O`` — net-level transitions with input and output places
  (:class:`NetTransitionSpec`; the paper's balance condition requires
  ``len(inputs) == len(outputs)``);
* ``l``  — the labelling function: each net transition carries a firing
  activity ``(action, rate)``, the rate possibly passive;
* ``π``  — the priority function, here an ``int`` per transition
  (larger = higher priority, matching :mod:`repro.petri`);
* ``C``  — the place-definition function: we store the context template
  on each :class:`PlaceDef`;
* ``D``  — token/static component definitions: the shared
  :class:`~repro.pepa.environment.Environment`;
* ``M0`` — the initial marking: the initial contents declared on each
  place definition's left-hand side (``P1[IM] = IM[_] ...``).

Cells inside a context are addressed by *paths* — tuples of tree
directions — so firing can vacate and fill individual cells while
keeping expressions immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import WellFormednessError
from repro.pepa.environment import Environment
from repro.pepa.rates import Rate
from repro.pepa.semantics import derivative_set, derivatives
from repro.pepa.syntax import (
    Cell,
    Choice,
    Const,
    Cooperation,
    Expression,
    Hiding,
    Prefix,
    Sequential,
)

__all__ = [
    "CellPath",
    "PlaceDef",
    "NetTransitionSpec",
    "PepaNet",
    "NetMarking",
    "find_cells",
    "replace_cell",
    "derivative_set",
]

#: A path from an expression root to a Cell node: 'L'/'R' descend a
#: cooperation, 'H' descends a hiding.
CellPath = tuple[str, ...]


def find_cells(expr: Expression, _prefix: CellPath = ()) -> list[tuple[CellPath, Cell]]:
    """All cells in ``expr`` with their paths, left-to-right."""
    if isinstance(expr, Cell):
        return [(_prefix, expr)]
    if isinstance(expr, Cooperation):
        return find_cells(expr.left, _prefix + ("L",)) + find_cells(expr.right, _prefix + ("R",))
    if isinstance(expr, Hiding):
        return find_cells(expr.expr, _prefix + ("H",))
    # Sequential components contain no cells (Fig 3 grammar).
    return []


def replace_cell(expr: Expression, path: CellPath, new_cell: Cell) -> Expression:
    """Rebuild ``expr`` with the cell at ``path`` replaced."""
    if not path:
        if not isinstance(expr, Cell):
            raise WellFormednessError(f"path does not lead to a cell: {expr}")
        return new_cell
    head, rest = path[0], path[1:]
    if head == "L" and isinstance(expr, Cooperation):
        return Cooperation(replace_cell(expr.left, rest, new_cell), expr.right, expr.actions)
    if head == "R" and isinstance(expr, Cooperation):
        return Cooperation(expr.left, replace_cell(expr.right, rest, new_cell), expr.actions)
    if head == "H" and isinstance(expr, Hiding):
        return Hiding(replace_cell(expr.expr, rest, new_cell), expr.actions)
    raise WellFormednessError(f"invalid cell path {path} into {expr}")


@dataclass(frozen=True)
class PlaceDef:
    """A place: its context template (cells vacant) and initial cell
    contents, positionally matching the template's cells."""

    name: str
    template: Expression
    initial_contents: tuple[Sequential | None, ...]

    def __post_init__(self) -> None:
        cells = find_cells(self.template)
        if not cells:
            raise WellFormednessError(
                f"place {self.name!r} has no cell: every PEPA-net place "
                "context must contain at least one cell"
            )
        for _, cell in cells:
            if cell.content is not None:
                raise WellFormednessError(
                    f"place {self.name!r}: template cells must be vacant; "
                    "initial contents go on the left-hand side"
                )
        if len(self.initial_contents) != len(cells):
            raise WellFormednessError(
                f"place {self.name!r}: {len(self.initial_contents)} initial "
                f"content(s) declared for {len(cells)} cell(s)"
            )

    def cell_families(self) -> tuple[str, ...]:
        """The cell families of the context, in template order."""
        return tuple(cell.family for _, cell in find_cells(self.template))

    def initial_expression(self) -> Expression:
        """The template with initial contents substituted into cells."""
        expr = self.template
        for (path, cell), content in zip(find_cells(self.template), self.initial_contents):
            if content is not None:
                expr = replace_cell(expr, path, Cell(cell.family, content))
        return expr


@dataclass(frozen=True)
class NetTransitionSpec:
    """A net-level transition: label ``(action, rate)``, priority, and
    input/output place names (repeats allowed, meaning several tokens
    from/to the same place)."""

    name: str
    action: str
    rate: Rate
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    priority: int = 1

    def __post_init__(self) -> None:
        if not self.inputs or not self.outputs:
            raise WellFormednessError(
                f"net transition {self.name!r} needs at least one input and one output place"
            )
        if self.priority < 0:
            raise WellFormednessError(f"net transition {self.name!r}: priority must be >= 0")

    def is_balanced(self) -> bool:
        """True when input and output place counts agree (paper requirement)."""
        return len(self.inputs) == len(self.outputs)


@dataclass(frozen=True)
class NetMarking:
    """A marking: the current PEPA expression of every place, in the
    net's canonical place order.  Hashable — markings are the states of
    the net-level LTS."""

    place_names: tuple[str, ...]
    place_states: tuple[Expression, ...]

    def state_of(self, place: str) -> Expression:
        """The current PEPA expression of one place."""
        try:
            return self.place_states[self.place_names.index(place)]
        except ValueError:
            raise KeyError(f"unknown place {place!r}") from None

    def with_state(self, place: str, expr: Expression) -> "NetMarking":
        """A copy of the marking with one place's expression replaced."""
        idx = self.place_names.index(place)
        states = list(self.place_states)
        states[idx] = expr
        return NetMarking(self.place_names, tuple(states))

    def __str__(self) -> str:
        return " | ".join(
            f"{name}: {expr}" for name, expr in zip(self.place_names, self.place_states)
        )


@dataclass
class PepaNet:
    """A complete PEPA net (Definition 1)."""

    environment: Environment
    places: dict[str, PlaceDef] = field(default_factory=dict)
    transitions: dict[str, NetTransitionSpec] = field(default_factory=dict)

    def add_place(self, place: PlaceDef) -> None:
        """Register a place definition; duplicate names are rejected."""
        if place.name in self.places:
            raise WellFormednessError(f"place {place.name!r} defined twice")
        self.places[place.name] = place

    def add_transition(self, spec: NetTransitionSpec) -> None:
        """Register a net transition; unknown places are rejected."""
        if spec.name in self.transitions:
            raise WellFormednessError(f"net transition {spec.name!r} defined twice")
        for place in spec.inputs + spec.outputs:
            if place not in self.places:
                raise WellFormednessError(
                    f"net transition {spec.name!r} references unknown place {place!r}"
                )
        self.transitions[spec.name] = spec

    # ------------------------------------------------------------------
    @property
    def firing_actions(self) -> frozenset[str]:
        """The set A_f of firing action types (suppressed from local
        place-level derivation)."""
        return frozenset(t.action for t in self.transitions.values())

    def initial_marking(self) -> NetMarking:
        """The marking M0: every place's template with declared contents."""
        names = tuple(self.places)
        return NetMarking(names, tuple(self.places[n].initial_expression() for n in names))

    def place_order(self) -> tuple[str, ...]:
        """The canonical (definition) order of place names."""
        return tuple(self.places)

    def cells(self) -> tuple[tuple[str, str], ...]:
        """Every cell of the net as ``(place, family)``: place after
        place in :meth:`place_order`, each place's in template order."""
        return tuple((name, family) for name, place in self.places.items()
                     for family in place.cell_families())

    def __str__(self) -> str:
        # _paren_seq wraps Choice contents in parentheses: the parser
        # reads each initial cell content as a seq *factor*, so a bare
        # "P + Q" in the bracket would not round-trip.
        from repro.pepa.syntax import _paren_seq

        lines = []
        for name, body in self.environment.components.items():
            lines.append(f"{name} = {body};")
        for place in self.places.values():
            contents = ", ".join(
                "_" if c is None else _paren_seq(c) for c in place.initial_contents
            )
            lines.append(f"{place.name}[{contents}] = {place.template};")
        for t in self.transitions.values():
            lines.append(
                f"{t.name} = ({t.action}, {t.rate}, {t.priority}) : "
                f"{', '.join(t.inputs)} -> {', '.join(t.outputs)};"
            )
        return "\n".join(lines)
