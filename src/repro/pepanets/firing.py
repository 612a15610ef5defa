"""The firing semantics of PEPA nets: Definitions 2–6 of the paper.

* **Enabling** (Def 2) — for each input place of a transition, a token
  (filled cell) whose content has a one-step derivative of the firing
  type.
* **Output** (Def 3) — a vacant cell in each output place.
* **Concession** (Def 4) — a type-preserving bijection φ between an
  enabling and an output: each fired token's derivative must belong to
  the derivative set of the cell family it is mapped into.
* **Enabling rule** (Def 5) — a transition fires only if no
  higher-priority transition has concession in the current marking.
* **Firing rule** (Def 6) — fired tokens are removed from their input
  cells (``T[T] → T[_]``) and their derivatives deposited per φ; when
  several φ exist they are equally likely, so the firing rate divides
  equally among the distinct outcomes.

The firing *rate* follows the paper's pointer to PEPA's apparent rates
and bounded capacity: the transition label and every participating
place act as an n-way cooperation on the firing type.  With label rate
``r_l`` and per-input-place apparent firing rates ``a_p`` (summed over
all eligible tokens of the place), a particular choice of tokens with
activity rates ``r_i`` fires at::

    ( Π_i  r_i / a_{p_i} ) · min(r_l, a_{p_1}, ..., a_{p_k})

with passive rates dropping out of the ``min`` as usual.  For the
repeated-input-place corner (two tokens drawn from one place) the same
formula is applied slot-wise; this matches the n-way cooperation law
whenever input places are distinct, which covers every model in the
paper.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.exceptions import RateError, WellFormednessError
from repro.pepa.environment import Environment
from repro.pepa.rates import Rate, rate_min, rate_sum
from repro.pepa.semantics import Transition, derivatives
from repro.pepa.syntax import Cell, Expression, Sequential
from repro.pepanets.syntax import (
    CellPath,
    NetMarking,
    NetTransitionSpec,
    PepaNet,
    derivative_set,
    find_cells,
    replace_cell,
)

__all__ = [
    "FiringInstance",
    "eligible_tokens",
    "vacant_cells",
    "has_concession",
    "enabled_transitions",
    "firing_instances",
    "DerivativeSets",
    "concession",
    "resolved_firings",
    "top_priority",
]


class DerivativeSets:
    """Cache of token-family derivative sets for type checking."""

    def __init__(self, env: Environment):
        self._env = env
        self._cache: dict[str, frozenset[Sequential]] = {}

    def of(self, family: str) -> frozenset[Sequential]:
        """The (cached) derivative set of a token family."""
        if family not in self._cache:
            self._cache[family] = derivative_set(family, self._env)
        return self._cache[family]

    def admits(self, family: str, component: Sequential) -> bool:
        """True when the component may occupy a cell of that family."""
        return component in self.of(family)


@dataclass(frozen=True)
class FiringInstance:
    """One resolved firing: transition, rate, and the successor marking."""

    transition: str
    action: str
    rate: float
    marking: NetMarking


def eligible_tokens(
    place_expr: Expression, action: str, env: Environment
) -> list[tuple[CellPath, Cell, Transition]]:
    """Tokens of the place with a one-step ``action``-derivative
    (Definition 2's per-place condition)."""
    out = []
    for path, cell in find_cells(place_expr):
        if cell.content is None:
            continue
        for tr in derivatives(cell.content, env):
            if tr.action == action:
                out.append((path, cell, tr))
    return out


def vacant_cells(place_expr: Expression) -> list[tuple[CellPath, Cell]]:
    """Vacant cells of the place (Definition 3's raw material)."""
    return [(path, cell) for path, cell in find_cells(place_expr) if cell.content is None]


#: A token eligible to fire: ``(cell, activity rate, derivative)``.  The
#: cell handle orders like the cell's path within its place (the term
#: level uses the path itself, the compiled search a leaf position).
Eligible = tuple[object, Rate, object]

#: ``eligible(place, action)``: the place's tokens able to fire ``action``.
EligibleFn = Callable[[str, str], list[Eligible]]

#: ``vacant(place)``: the place's vacant cells as ``(cell, family)``.
VacantFn = Callable[[str], list[tuple[object, str]]]

#: ``admits(family, derivative)``: Definition 4's type check.
AdmitsFn = Callable[[str, object], bool]

_T = TypeVar("_T")


def _place_apparent_rate(rates: list[Rate], place: str, action: str) -> Rate:
    total: Rate | None = None
    for rate in rates:
        try:
            total = rate if total is None else rate_sum(total, rate)
        except RateError:
            raise WellFormednessError(
                f"place {place!r} mixes active and passive tokens for firing "
                f"type {action!r}; the apparent rate is undefined"
            ) from None
    assert total is not None
    return total


def _token_combinations(
    spec: NetTransitionSpec, eligible: EligibleFn
) -> tuple[list[tuple[tuple, float]], dict[str, Rate]]:
    """All token selections plus per-place apparent rates.

    Each entry is ``(combo, share)``: a tuple over input slots of
    ``(place, cell, derivative)`` together with its probabilistic share
    of the firing rate.  When a place appears once, the share is the
    classic apparent-rate ratio ``r_i / a_p``.  When a transition draws
    ``k`` tokens from one place (Definition 1 has single input places;
    multi-arc transitions are our conservative generalisation),
    selections are *unordered* ``k``-subsets of distinct cells, weighted
    by the normalised product of their activity rates — which reduces to
    the ratio rule at ``k = 1`` and never double-counts a physical
    selection.
    """
    apparent: dict[str, Rate] = {}
    multiplicity: dict[str, int] = {}
    eligibles: dict[str, list[Eligible]] = {}
    slot_order: list[str] = list(spec.inputs)
    for place in slot_order:
        multiplicity[place] = multiplicity.get(place, 0) + 1
        if place in eligibles:
            continue
        elig = eligible(place, spec.action)
        if not elig:
            return [], {}
        apparent[place] = _place_apparent_rate(
            [rate for _, rate, _ in elig], place, spec.action
        )
        eligibles[place] = elig

    # per-place weighted selections
    per_place: dict[str, list[tuple[list[tuple[str, object, object]], float]]] = {}
    for place, k in multiplicity.items():
        options = eligibles[place]
        raw: list[tuple[list[tuple[str, object, object]], float]] = []
        for subset in itertools.combinations(options, k):
            cells = [cell for cell, _, _ in subset]
            if len(set(cells)) != k:
                continue  # one cell cannot supply two tokens
            weight = 1.0
            chosen = []
            for cell, rate, target in subset:
                weight *= _rate_weight(rate)
                chosen.append((place, cell, target))
            raw.append((chosen, weight))
        if not raw:
            return [], {}
        total = sum(w for _, w in raw)
        per_place[place] = [(chosen, w / total) for chosen, w in raw]

    combos: list[tuple[tuple, float]] = []
    places = list(per_place)
    for assignment in itertools.product(*(per_place[p] for p in places)):
        share = 1.0
        pool: dict[str, list[tuple[str, object, object]]] = {}
        for (chosen, weight), place in zip(assignment, places):
            share *= weight
            pool[place] = list(chosen)
        combo = tuple(pool[place].pop(0) for place in slot_order)
        combos.append((combo, share))
    return combos, apparent


def _rate_weight(rate: Rate) -> float:
    """A comparable magnitude for selection weighting: the value for
    actives, the weight for passives (kinds never mix within a place —
    :func:`_place_apparent_rate` enforces that)."""
    if rate.is_passive():
        from repro.pepa.rates import PassiveRate

        assert isinstance(rate, PassiveRate)
        return rate.weight
    return rate.value


def _output_mappings(
    spec: NetTransitionSpec,
    targets: tuple,
    vacant: VacantFn,
    admits: AdmitsFn,
) -> list[tuple[tuple[str, object, str], ...]]:
    """All type-preserving bijections φ (Definition 4).

    Each mapping is a tuple over *input slots* ``i`` of
    ``(output_place, cell, family)`` receiving token ``i``'s
    derivative.  Deduplicated, because a permutation of equal slots can
    produce the same physical assignment twice.
    """
    k = len(spec.outputs)
    vacant_per_outslot: list[list[tuple[str, object, str]]] = []
    for place in spec.outputs:
        cells = vacant(place)
        if not cells:
            return []
        vacant_per_outslot.append([(place, cell, family) for cell, family in cells])

    mappings: set[tuple[tuple[str, object, str], ...]] = set()
    for sigma in itertools.permutations(range(k)):
        # input slot i is delivered to output slot sigma[i]
        for cells_choice in itertools.product(*vacant_per_outslot):
            used: set[tuple[str, object]] = set()
            clash = False
            for place, cell, _ in cells_choice:
                key = (place, cell)
                if key in used:
                    clash = True
                    break
                used.add(key)
            if clash:
                continue
            assignment = tuple(cells_choice[sigma[i]] for i in range(k))
            if all(admits(assignment[i][2], targets[i]) for i in range(k)):
                mappings.add(assignment)
    return sorted(mappings)  # type: ignore[arg-type]


def concession(
    spec: NetTransitionSpec, eligible: EligibleFn, vacant: VacantFn, admits: AdmitsFn
) -> bool:
    """Definition 4 over a marking seen through ``eligible``/``vacant``:
    some enabling admits a type-preserving bijection to an output."""
    combos, _ = _token_combinations(spec, eligible)
    for combo, _share in combos:
        targets = tuple(target for _, _, target in combo)
        if _output_mappings(spec, targets, vacant, admits):
            return True
    return False


def top_priority(with_concession: list[_T]) -> list[_T]:
    """Definition 5: of the transitions with concession, those of the
    highest priority, in name order.  Works on anything carrying the
    transition's ``priority`` and ``name``."""
    if not with_concession:
        return []
    top = max(s.priority for s in with_concession)
    return sorted((s for s in with_concession if s.priority == top), key=lambda s: s.name)


def resolved_firings(
    spec: NetTransitionSpec, eligible: EligibleFn, vacant: VacantFn, admits: AdmitsFn
) -> list[tuple[float, tuple, tuple]]:
    """Definition 6 for one enabled transition: every firing as
    ``(rate, combo, mapping)``, where ``combo`` lists the fired tokens
    as ``(place, cell, derivative)`` and ``mapping`` the receiving
    cells as ``(place, cell, family)``, slot by slot."""
    combos, apparent = _token_combinations(spec, eligible)
    floor = spec.rate
    for place_rate in apparent.values():
        floor = rate_min(floor, place_rate)
    if floor.is_passive():
        raise WellFormednessError(
            f"net transition {spec.name!r}: the label and every "
            "participating token are passive; the firing rate is undefined"
        )
    out = []
    for combo, share in combos:
        targets = tuple(target for _, _, target in combo)
        mappings = _output_mappings(spec, targets, vacant, admits)
        if not mappings:
            continue
        combo_rate = share * floor.value
        per_mapping = combo_rate / len(mappings)
        for mapping in mappings:
            out.append((per_mapping, combo, mapping))
    return out


def _term_view(
    marking: NetMarking, env: Environment, ds: DerivativeSets
) -> tuple[EligibleFn, VacantFn, AdmitsFn]:
    """A marking's tokens and vacant cells, read off its terms."""

    def eligible(place: str, action: str) -> list[Eligible]:
        return [
            (path, tr.rate, tr.target)
            for path, _, tr in eligible_tokens(marking.state_of(place), action, env)
        ]

    def vacant(place: str) -> list[tuple[object, str]]:
        return [(path, cell.family) for path, cell in vacant_cells(marking.state_of(place))]

    return eligible, vacant, ds.admits


def has_concession(
    net: PepaNet,
    marking: NetMarking,
    spec: NetTransitionSpec,
    env: Environment,
    ds: DerivativeSets,
) -> bool:
    """Definition 4: some enabling admits a type-preserving bijection to
    an output."""
    return concession(spec, *_term_view(marking, env, ds))


def enabled_transitions(
    net: PepaNet, marking: NetMarking, env: Environment, ds: DerivativeSets
) -> list[NetTransitionSpec]:
    """Definition 5: transitions with concession, filtered by priority."""
    view = _term_view(marking, env, ds)
    return top_priority([s for s in net.transitions.values() if concession(s, *view)])


def firing_instances(
    net: PepaNet, marking: NetMarking, env: Environment, ds: DerivativeSets
) -> list[FiringInstance]:
    """All firings enabled in ``marking`` with their rates and successor
    markings (Definitions 5 and 6)."""
    view = _term_view(marking, env, ds)
    out: list[FiringInstance] = []
    enabled = top_priority([s for s in net.transitions.values() if concession(s, *view)])
    for spec in enabled:
        for rate, combo, mapping in resolved_firings(spec, *view):
            successor = _apply_firing(marking, combo, mapping)
            out.append(FiringInstance(spec.name, spec.action, rate, successor))
    return out


def _apply_firing(
    marking: NetMarking,
    combo: tuple[tuple[str, CellPath, Sequential], ...],
    mapping: tuple[tuple[str, CellPath, str], ...],
) -> NetMarking:
    """Definition 6: vacate every fired cell, then deposit derivatives."""
    result = marking
    for place, path, _ in combo:
        expr = result.state_of(place)
        _, old_cell = next(
            (p, c) for p, c in find_cells(expr) if p == path
        )
        result = result.with_state(place, replace_cell(expr, path, old_cell.vacated()))
    for (_, _, target), (out_place, out_path, family) in zip(combo, mapping):
        expr = result.state_of(out_place)
        assert isinstance(target, Sequential)
        result = result.with_state(
            out_place, replace_cell(expr, out_path, Cell(family, target))
        )
    return result
