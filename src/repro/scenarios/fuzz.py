"""Differential fuzzing of the extract pipeline against direct nets.

For every seed the oracle runs the *same scenario* down two
independently implemented paths:

* **extract path** — render the scenario as XMI, read it back with
  :func:`repro.uml.xmi.reader.read_model`, extract a PEPA net with
  :func:`repro.extract.extract_activity_diagram`, analyse it;
* **direct path** — render the scenario's hand-assembled PEPA net as
  text, parse it with :func:`repro.pepanets.parser.parse_net`, analyse
  it.

The two constructions are LTS-isomorphic by design
(:mod:`repro.scenarios.generator`), so state counts, arc counts,
action/firing throughputs and location occupancies must agree to a
relative 1e-8.  The extracted net's marking space, derived by the
compiled search, must also equal the term-level reference
(:func:`repro.pepanets.semantics.explore_net_reference`) exactly:
markings, arcs and float rates.  Any disagreement — or any crash along
either path — is a finding: the failing spec is structurally shrunk to a minimal
still-failing form and dumped as a reproducer directory (spec + both
sources + rates + report) that replays without the generator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.exceptions import BudgetExceededError, ReproError
from repro.resilience.budget import ExecutionBudget
from repro.scenarios.generator import (
    GeneratorParams,
    ScenarioSpec,
    _static_steps,
    _token_order,
    _token_steps,
    _token_visited,
    generate_scenario,
    scenario_from_spec,
    spec_to_json,
)

__all__ = [
    "Mismatch",
    "SeedResult",
    "SweepReport",
    "DEFAULT_TOLERANCE",
    "DEFAULT_MAX_STATES",
    "compare_spec",
    "compare_seed",
    "run_sweep",
    "minimise_spec",
    "dump_reproducer",
    "within_tolerance",
]

DEFAULT_TOLERANCE = 1e-8
DEFAULT_MAX_STATES = 200_000


@dataclass(frozen=True)
class Mismatch:
    """One disagreement between the two paths."""

    field: str
    detail: str
    extract_value: object = None
    direct_value: object = None

    def as_json(self) -> dict:
        """The mismatch as a JSON-ready dict (reproducer reports)."""
        return {
            "field": self.field,
            "detail": self.detail,
            "extract": _jsonable(self.extract_value),
            "direct": _jsonable(self.direct_value),
        }


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


@dataclass
class SeedResult:
    """The oracle's verdict for one seed."""

    seed: int
    ok: bool
    mismatches: list[Mismatch] = field(default_factory=list)
    n_states: int | None = None
    spec: ScenarioSpec | None = None
    minimised: ScenarioSpec | None = None
    reproducer: str | None = None


@dataclass
class SweepReport:
    """Aggregate outcome of a seed sweep."""

    requested: int = 0
    completed: int = 0
    divergent: list[SeedResult] = field(default_factory=list)
    budget_exhausted: bool = False
    #: The seed the sweep was working on when the budget ran out, so a
    #: truncated CI log still says where to resume (``--base SEED``).
    exhausted_seed: int | None = None

    @property
    def ok(self) -> bool:
        return not self.divergent

    def summary(self) -> str:
        """Human-readable sweep outcome (what the CLI prints)."""
        lines = [
            f"fuzz: {self.completed}/{self.requested} seeds checked, "
            f"{len(self.divergent)} divergent"
            + (
                f" (budget exhausted at seed {self.exhausted_seed})"
                if self.budget_exhausted and self.exhausted_seed is not None
                else " (budget exhausted)" if self.budget_exhausted
                else ""
            )
        ]
        for result in self.divergent:
            first = result.mismatches[0] if result.mismatches else None
            what = f"{first.field}: {first.detail}" if first else "divergent"
            lines.append(f"  seed {result.seed}: {what}")
            if result.reproducer:
                lines.append(f"    reproducer: {result.reproducer}")
        return "\n".join(lines)

    def as_json(self) -> dict:
        """The report as a JSON-ready dict (machine consumers)."""
        return {
            "requested": self.requested,
            "completed": self.completed,
            "budget_exhausted": self.budget_exhausted,
            "exhausted_seed": self.exhausted_seed,
            "divergent": [
                {
                    "seed": r.seed,
                    "mismatches": [m.as_json() for m in r.mismatches],
                    "reproducer": r.reproducer,
                }
                for r in self.divergent
            ],
        }


def within_tolerance(a: float, b: float, tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """Relative agreement: ``|a-b| <= tol * max(1, |a|, |b|)``."""
    return abs(a - b) <= tolerance * max(1.0, abs(a), abs(b))


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
def _analyse_both(spec: ScenarioSpec, *, solver: str | None, max_states: int,
                  budget: ExecutionBudget | None):
    from repro.extract import RateTable, extract_activity_diagram
    from repro.pepanets.measures import analyse_net
    from repro.pepanets.parser import parse_net
    from repro.pepanets.semantics import explore_net_reference
    from repro.uml.xmi.reader import read_model

    scenario = scenario_from_spec(spec)
    model = read_model(scenario.xmi_text())
    graph = model.activity_graphs[0]
    extraction = extract_activity_diagram(
        graph,
        RateTable.from_numbers(scenario.rates),
        reset_rate=spec.reset_rate,
    )
    via_extract = analyse_net(extraction.net, solver=solver,
                              max_states=max_states, budget=budget)
    direct_net = parse_net(scenario.net_text())
    via_direct = analyse_net(direct_net, solver=solver,
                             max_states=max_states, budget=budget)
    reference = explore_net_reference(extraction.net, max_states=max_states,
                                      budget=budget)
    return via_extract, via_direct, reference


def compare_spec(spec: ScenarioSpec, *, solver: str | None = None,
                 max_states: int = DEFAULT_MAX_STATES,
                 tolerance: float = DEFAULT_TOLERANCE,
                 budget: ExecutionBudget | None = None) -> list[Mismatch]:
    """Run both paths on one spec; the empty list means they agree.

    A crash along either path is reported as a ``pipeline-error``
    mismatch rather than raised: a generated scenario one path accepts
    and the other rejects is precisely the kind of bug the fuzzer
    exists to find.  Budget exhaustion *is* re-raised — it aborts the
    sweep, it is not a finding.
    """
    try:
        via_extract, via_direct, reference = _analyse_both(
            spec, solver=solver, max_states=max_states, budget=budget)
    except BudgetExceededError:
        raise
    except ReproError as exc:
        return [Mismatch("pipeline-error", f"{type(exc).__name__}: {exc}")]

    mismatches: list[Mismatch] = []
    if via_extract.space.markings != reference.markings:
        mismatches.append(Mismatch(
            "compiled-markings",
            "compiled marking space differs from the term-level reference",
            len(via_extract.space.markings), len(reference.markings)))
    elif via_extract.space.arcs != reference.arcs:
        mismatches.append(Mismatch(
            "compiled-arcs",
            "compiled arcs or rates differ from the term-level reference",
            len(via_extract.space.arcs), len(reference.arcs)))
    if via_extract.n_states != via_direct.n_states:
        mismatches.append(Mismatch(
            "n_states", "marking-space sizes differ",
            via_extract.n_states, via_direct.n_states))
    if len(via_extract.space.arcs) != len(via_direct.space.arcs):
        mismatches.append(Mismatch(
            "n_arcs", "marking-space arc counts differ",
            len(via_extract.space.arcs), len(via_direct.space.arcs)))

    def compare_map(field_name: str, left: dict, right: dict) -> None:
        if sorted(left) != sorted(right):
            mismatches.append(Mismatch(
                field_name, "key sets differ",
                ", ".join(sorted(left)), ", ".join(sorted(right))))
            return
        for key in sorted(left):
            if not within_tolerance(left[key], right[key], tolerance):
                mismatches.append(Mismatch(
                    f"{field_name}[{key}]",
                    f"values differ beyond {tolerance:g}",
                    left[key], right[key]))

    compare_map("throughput", via_extract.all_throughputs(),
                via_direct.all_throughputs())
    compare_map("firing", via_extract.firing_throughputs(),
                via_direct.firing_throughputs())
    compare_map("location", via_extract.location_distribution(),
                via_direct.location_distribution())
    return mismatches


def compare_seed(seed: int, *, params: GeneratorParams | None = None,
                 solver: str | None = None, max_states: int = DEFAULT_MAX_STATES,
                 tolerance: float = DEFAULT_TOLERANCE,
                 budget: ExecutionBudget | None = None) -> SeedResult:
    """Generate one seed's scenario and run the differential oracle."""
    scenario = generate_scenario(seed, params)
    mismatches = compare_spec(scenario.spec, solver=solver,
                              max_states=max_states, tolerance=tolerance,
                              budget=budget)
    n_states = None
    return SeedResult(seed=seed, ok=not mismatches, mismatches=mismatches,
                      n_states=n_states, spec=scenario.spec)


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def _normalise(spec: ScenarioSpec) -> ScenarioSpec | None:
    """Repair a shrunk spec's invariants, or reject it outright.

    Statics whose place no surviving token visits are dropped (the
    extractor would reject the unknown ``performedBy`` location); the
    decision is dropped unless the single-token, zero-static shape it
    requires still holds; a spec with no token activity left is no
    scenario at all.
    """
    visited: set[str] = set()
    keep_tokens = []
    for t in range(len(spec.tokens)):
        if _token_steps(spec, t):
            keep_tokens.append(t)
            visited.update(_token_visited(spec, t))
    if not keep_tokens:
        return None
    chain = tuple(
        s for s in spec.chain
        if (s.kind != "static" and s.token in keep_tokens)
        or (s.kind == "static" and s.target in visited)
    )
    renumber = {old: new for new, old in enumerate(keep_tokens)}
    chain = tuple(
        s if s.token is None else replace(s, token=renumber[s.token])
        for s in chain
    )
    tokens = tuple(spec.tokens[t] for t in keep_tokens)
    decision = spec.decision
    if decision is not None and (
            len(tokens) != 1 or any(s.kind == "static" for s in chain)):
        decision = None
    return replace(spec, tokens=tokens, chain=chain, decision=decision)


def _shrink_candidates(spec: ScenarioSpec) -> Iterable[ScenarioSpec]:
    """Strictly-smaller variants of a spec, simplest first."""
    if spec.decision is not None:
        yield replace(spec, decision=None)
        for b, branch in enumerate(spec.decision.branches):
            if len(branch) > 1:
                branches = list(spec.decision.branches)
                branches[b] = branch[:-1]
                yield replace(spec, decision=replace(
                    spec.decision, branches=tuple(branches)))
    statics = _static_steps(spec)
    for target in statics:
        yield replace(spec, chain=tuple(
            s for s in spec.chain if s is not target))
    if len(_token_order(spec)) > 1:
        for t in _token_order(spec):
            yield replace(spec, chain=tuple(
                s for s in spec.chain if s.token != t))
    for target in spec.chain:
        if target.kind in ("activity", "move"):
            yield replace(spec, chain=tuple(
                s for s in spec.chain if s is not target))
    if any(rate != 1.0 for _, rate in spec.rates) or spec.reset_rate != 1.0:
        yield replace(spec, rates=tuple(
            (name, 1.0) for name, _ in spec.rates), reset_rate=1.0)


def minimise_spec(spec: ScenarioSpec,
                  is_failing: Callable[[ScenarioSpec], bool],
                  *, max_rounds: int = 200) -> ScenarioSpec:
    """Greedy structural shrink: repeatedly take the first smaller
    variant that still fails, until none does (or the round budget is
    spent — shrinking is best-effort, never load-bearing)."""
    current = spec
    for _ in range(max_rounds):
        for candidate in _shrink_candidates(current):
            repaired = _normalise(candidate)
            if repaired is None or repaired == current:
                continue
            try:
                failing = is_failing(repaired)
            except BudgetExceededError:
                return current
            except ReproError:
                failing = True
            if failing:
                current = repaired
                break
        else:
            return current
    return current


# ----------------------------------------------------------------------
# Reproducers
# ----------------------------------------------------------------------
def dump_reproducer(out_dir: str | Path, result: SeedResult) -> str:
    """Write a self-contained reproducer directory for one finding.

    Layout: ``seed-<n>/spec.json`` (the original spec),
    ``minimised.json`` plus both renderings (``scenario.xmi``,
    ``scenario.pepanet``) and ``rates.json`` of the *minimised* spec,
    and ``report.json`` with the mismatches.  Everything replays
    without the generator: feed the XMI to ``choreographer analyse``
    and the net text to ``choreographer net``.
    """
    spec = result.spec
    assert spec is not None
    minimised = result.minimised or spec
    scenario = scenario_from_spec(minimised)
    directory = Path(out_dir) / f"seed-{result.seed}"
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "spec.json").write_text(spec_to_json(spec))
    (directory / "minimised.json").write_text(spec_to_json(minimised))
    try:
        (directory / "scenario.xmi").write_text(scenario.xmi_text())
    except ReproError as exc:  # the crash may *be* the finding
        (directory / "scenario.xmi.error").write_text(f"{type(exc).__name__}: {exc}\n")
    try:
        (directory / "scenario.pepanet").write_text(scenario.net_text())
    except ReproError as exc:
        (directory / "scenario.pepanet.error").write_text(f"{type(exc).__name__}: {exc}\n")
    (directory / "rates.json").write_text(
        json.dumps(dict(minimised.rates), indent=2, sort_keys=True) + "\n")
    (directory / "report.json").write_text(json.dumps({
        "seed": result.seed,
        "mismatches": [m.as_json() for m in result.mismatches],
    }, indent=2) + "\n")
    return str(directory)


# ----------------------------------------------------------------------
# The sweep driver
# ----------------------------------------------------------------------
def run_sweep(seeds: Sequence[int] | Iterable[int], *,
              params: GeneratorParams | None = None,
              solver: str | None = None,
              max_states: int = DEFAULT_MAX_STATES,
              tolerance: float = DEFAULT_TOLERANCE,
              deadline: float | None = None,
              out_dir: str | Path | None = None,
              minimise: bool = True,
              progress: Callable[[str], None] | None = None) -> SweepReport:
    """Run the differential oracle over many seeds.

    ``deadline`` bounds the whole sweep with one cooperative
    :class:`~repro.resilience.budget.ExecutionBudget` — exceeding it stops
    the sweep gracefully with ``budget_exhausted`` set and
    ``exhausted_seed`` naming the seed in flight, it never fails seeds
    that were not reached.  With ``out_dir`` set, every divergent
    seed is shrunk (unless ``minimise`` is off) and dumped as a
    reproducer directory.
    """
    seeds = list(seeds)
    report = SweepReport(requested=len(seeds))
    budget = None if deadline is None else ExecutionBudget.of(deadline_seconds=deadline)
    for seed in seeds:
        try:
            result = compare_seed(seed, params=params, solver=solver,
                                  max_states=max_states, tolerance=tolerance,
                                  budget=budget)
        except BudgetExceededError:
            report.budget_exhausted = True
            report.exhausted_seed = seed
            break
        report.completed += 1
        if result.ok:
            continue
        if minimise and result.spec is not None:
            def still_fails(candidate: ScenarioSpec) -> bool:
                return bool(compare_spec(candidate, solver=solver,
                                         max_states=max_states,
                                         tolerance=tolerance, budget=budget))

            result.minimised = minimise_spec(result.spec, still_fails)
        if out_dir is not None:
            result.reproducer = dump_reproducer(out_dir, result)
        report.divergent.append(result)
        if progress is not None:
            first = result.mismatches[0]
            progress(f"seed {seed} divergent — {first.field}: {first.detail}")
    return report
