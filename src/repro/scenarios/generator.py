"""Seeded generative mobile-app scenarios (ROADMAP item 5).

A *scenario* is a randomly drawn — but fully deterministic per seed —
mobile application in the paper's design vocabulary: a topology of
locations, a population of mobile tokens (clients, sessions, couriers)
that perform activities and ``<<move>>`` between locations, optional
static components pinned to a location via ``performedBy`` tags, and a
rate regime over every activity.

Each scenario is rendered through **two independent paths**:

* :meth:`Scenario.xmi_text` — a UML activity diagram (object boxes,
  ``atloc`` tags, ``<<move>>`` stereotypes) serialised with
  :func:`repro.uml.xmi.writer.write_model`, i.e. the *front door* of the
  Figure 4 tool chain; and
* :meth:`Scenario.net_text` — a hand-assembled PEPA net in the textual
  dialect, mirroring rule for rule what the Section 3 extractor *should*
  produce (same action names, same place topology, same cooperation
  sets, same synthetic ``reset_*`` recurrence firings).

The two constructions are LTS-isomorphic by design, so state counts,
arc counts and every steady-state measure must agree — which is the
differential oracle :mod:`repro.scenarios.fuzz` checks to 1e-8.

Determinism contract: the same seed yields byte-identical XMI and
PEPA-net text across processes and Python versions.  This requires
pinned ``xmi.id`` values (the UML layer's global id counter is
process-ordering dependent) and rate values whose ``repr`` round-trips
through ``%g`` formatting — both handled here.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, replace

from repro.pepa.environment import Environment
from repro.pepa.rates import ActiveRate
from repro.pepa.syntax import Cell, Choice, Const, Cooperation, Expression, Prefix, Sequential
from repro.pepanets.export import net_source
from repro.pepanets.syntax import NetTransitionSpec, PepaNet, PlaceDef
from repro.uml.activity import ActivityGraph
from repro.uml.model import UmlModel

__all__ = [
    "GeneratorParams",
    "ChainStep",
    "TokenSpec",
    "DecisionSpec",
    "ScenarioSpec",
    "Scenario",
    "generate_scenario",
    "scenario_from_spec",
    "spec_to_json",
    "spec_from_json",
    "corpus_net",
    "corpus_source",
]

#: classes assigned to successive tokens (purely cosmetic names).
TOKEN_CLASSES = ("Client", "Session", "Courier")


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs of the random scenario space.

    The defaults keep every scenario's marking space small (hundreds of
    states), so a thousand-seed differential sweep runs in seconds; the
    corpus batch entry points scale *count*, not instance size.
    """

    max_locations: int = 3
    max_tokens: int = 3
    max_segments: int = 3
    max_activities_per_segment: int = 2
    max_static_activities: int = 2
    decision_prob: float = 0.3
    cooperation_prob: float = 0.35


@dataclass(frozen=True)
class ChainStep:
    """One step of the global control chain.

    ``kind`` is ``"activity"`` (a token's local activity), ``"move"``
    (a ``<<move>>`` of a token; ``target`` is the destination location)
    or ``"static"`` (an object-less activity; ``target`` is the place
    its ``performedBy`` tag names).  Token locations are *derived* by
    replaying moves, never stored, so structural shrinking (dropping a
    move) can never leave the spec internally inconsistent.
    """

    kind: str
    token: int | None
    action: str
    target: str | None = None


@dataclass(frozen=True)
class TokenSpec:
    """A mobile object: UML name ``obj: Class``, starting at ``initial``."""

    obj: str
    cls: str
    initial: str


@dataclass(frozen=True)
class DecisionSpec:
    """A terminal binary decision of the (single) token: after the main
    chain, control branches into two alternative activity sequences at
    the token's final location, reconverging at the final node."""

    branches: tuple[tuple[str, ...], tuple[str, ...]]


@dataclass(frozen=True)
class ScenarioSpec:
    """The pure data a scenario is rendered from (JSON-able, shrinkable)."""

    seed: int
    name: str
    tokens: tuple[TokenSpec, ...]
    chain: tuple[ChainStep, ...]
    decision: DecisionSpec | None
    rates: tuple[tuple[str, float], ...]
    reset_rate: float


# ----------------------------------------------------------------------
# Replay helpers (shared by both renderers)
# ----------------------------------------------------------------------
def _token_steps(spec: ScenarioSpec, t: int) -> list[ChainStep]:
    return [s for s in spec.chain if s.token == t]


def _token_route(spec: ScenarioSpec, t: int) -> list[tuple[ChainStep, str, str]]:
    """Each step of token ``t`` with its (location-before, location-after)."""
    loc = spec.tokens[t].initial
    route = []
    for step in _token_steps(spec, t):
        after = step.target if step.kind == "move" else loc
        route.append((step, loc, after))
        loc = after
    return route


def _token_final_location(spec: ScenarioSpec, t: int) -> str:
    route = _token_route(spec, t)
    return route[-1][2] if route else spec.tokens[t].initial


def _token_visited(spec: ScenarioSpec, t: int) -> list[str]:
    """Locations token ``t`` has an object box at, in first-visit order."""
    seen = [spec.tokens[t].initial]
    for _, _, after in _token_route(spec, t):
        if after not in seen:
            seen.append(after)
    return seen


def _token_order(spec: ScenarioSpec) -> list[int]:
    """Token indices by first appearance in the chain — the order their
    object boxes enter the diagram, hence the extractor's token order."""
    order: list[int] = []
    for step in spec.chain:
        if step.token is not None and step.token not in order:
            order.append(step.token)
    return order


def _place_order(spec: ScenarioSpec) -> list[str]:
    """Place names in the order their ``atloc`` tags first appear in the
    diagram — exactly :meth:`ActivityGraph.locations` on the rendering."""
    order: list[str] = []
    started: set[int] = set()
    locs: dict[int, str] = {}

    def visit(loc: str) -> None:
        if loc not in order:
            order.append(loc)

    for step in spec.chain:
        t = step.token
        if t is None:
            continue
        if t not in started:
            started.add(t)
            locs[t] = spec.tokens[t].initial
            visit(locs[t])
        if step.kind == "move":
            locs[t] = step.target or locs[t]
        visit(locs[t])
    return order


def _static_steps(spec: ScenarioSpec) -> list[ChainStep]:
    return [s for s in spec.chain if s.kind == "static"]


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
def generate_scenario(seed: int, params: GeneratorParams | None = None) -> "Scenario":
    """Draw the scenario of ``seed`` — same seed, same bytes, always."""
    return Scenario(_generate_spec(seed, params or GeneratorParams()))


def scenario_from_spec(spec: ScenarioSpec) -> "Scenario":
    """Rebuild a scenario from a (possibly shrunk) spec."""
    return Scenario(spec)


def _generate_spec(seed: int, p: GeneratorParams) -> ScenarioSpec:
    rng = random.Random(seed)
    n_loc = rng.randint(1, p.max_locations)
    n_tok = rng.randint(1, p.max_tokens)
    want_decision = n_tok == 1 and rng.random() < p.decision_prob
    n_static = 0 if want_decision else rng.randint(0, p.max_static_activities)

    act_counter = 0
    mv_counter = 0
    tokens: list[TokenSpec] = []
    sequences: list[list[ChainStep]] = []
    for t in range(n_tok):
        n_seg = 1 if n_loc == 1 else rng.randint(1, p.max_segments)
        loc_idx = [rng.randrange(n_loc)]
        for _ in range(n_seg - 1):
            step = rng.randrange(n_loc - 1)
            loc_idx.append(step if step < loc_idx[-1] else step + 1)
        steps: list[ChainStep] = []
        for si in range(n_seg):
            for _ in range(rng.randint(1, p.max_activities_per_segment)):
                steps.append(ChainStep("activity", t, f"act{act_counter}"))
                act_counter += 1
            if si < n_seg - 1:
                steps.append(ChainStep("move", t, f"mv{mv_counter}",
                                       target=f"Loc{loc_idx[si + 1]}"))
                mv_counter += 1
        tokens.append(TokenSpec(f"tok{t}", TOKEN_CLASSES[t % len(TOKEN_CLASSES)],
                                f"Loc{loc_idx[0]}"))
        sequences.append(steps)

    # visited locations (before interleaving; tokens fully determine them)
    visited: list[str] = []
    for t in range(n_tok):
        loc = tokens[t].initial
        if loc not in visited:
            visited.append(loc)
        for s in sequences[t]:
            if s.kind == "move" and s.target not in visited:
                visited.append(s.target)  # type: ignore[arg-type]

    statics = [
        ChainStep("static", None, f"st{i}", target=rng.choice(visited))
        for i in range(n_static)
    ]

    # random merge: tokens keep their own order, statics drop in anywhere
    pools = [list(seq) for seq in sequences] + ([list(statics)] if statics else [])
    chain: list[ChainStep] = []
    while any(pools):
        k = rng.choice([i for i, pool in enumerate(pools) if pool])
        chain.append(pools[k].pop(0))

    decision = None
    if want_decision:
        branches = tuple(
            tuple(f"act{act_counter + 10 * b + i}"
                  for i in range(rng.randint(1, p.max_activities_per_segment)))
            for b in range(2)
        )
        decision = DecisionSpec(branches=branches)  # type: ignore[arg-type]

    # cooperation variant: one static shares its action name with a token
    # activity performed at the static's own place, so the place context
    # genuinely synchronises (an off-place share would deadlock the
    # static — legal, but a lively sync exercises more semantics).
    if statics and rng.random() < p.cooperation_prob:
        spec_probe = ScenarioSpec(seed, "", tuple(tokens), tuple(chain),
                                  None, (), 1.0)
        static_idx = [i for i, s in enumerate(chain) if s.kind == "static"]
        pick = rng.choice(static_idx)
        place = chain[pick].target
        colocated = [
            s.action
            for t in range(n_tok)
            for (s, before, _after) in _token_route(spec_probe, t)
            if s.kind == "activity" and before == place
        ]
        if colocated:
            chain[pick] = replace(chain[pick], action=rng.choice(colocated))

    # rate regime over every action name (shared names share a rate)
    names: list[str] = []
    for s in chain:
        if s.action not in names:
            names.append(s.action)
    if decision:
        for branch in decision.branches:
            names.extend(branch)
    regime = rng.choice(("uniform", "wide", "mixed"))

    def draw_rate() -> float:
        wide = regime == "wide" or (regime == "mixed" and rng.random() < 0.5)
        if wide:
            return round(10.0 ** rng.uniform(-1.5, 1.5), 4)
        return round(rng.uniform(0.3, 6.0), 3)

    rates = tuple((name, draw_rate()) for name in names)
    reset_rate = round(rng.uniform(0.4, 3.0), 3)
    return ScenarioSpec(
        seed=seed,
        name=f"scenario_{seed}",
        tokens=tuple(tokens),
        chain=tuple(chain),
        decision=decision,
        rates=rates,
        reset_rate=reset_rate,
    )


# ----------------------------------------------------------------------
# The scenario object: dual renderers + fingerprint
# ----------------------------------------------------------------------
@dataclass
class Scenario:
    """A generated scenario with its two renderings.

    All artefacts are pure functions of :attr:`spec` — no clocks, no
    global counters — so repeated calls (and repeated processes) produce
    identical bytes.
    """

    spec: ScenarioSpec
    _xmi: str | None = field(default=None, repr=False)
    _net_text: str | None = field(default=None, repr=False)

    @property
    def seed(self) -> int:
        return self.spec.seed

    @property
    def rates(self) -> dict[str, float]:
        """Activity name → rate, for :class:`repro.extract.rates.RateTable`."""
        return dict(self.spec.rates)

    # -- UML rendering --------------------------------------------------
    def build_model(self) -> UmlModel:
        """The scenario as a UML model with one activity diagram.

        Every ``xmi.id`` is pinned (``m1``/``g1``/``n<k>``): ids derived
        from the process-global element counter would differ from run to
        run and break the byte-for-byte reproducibility contract.
        """
        spec = self.spec
        counter = iter(range(1, 10_000))

        def nid() -> str:
            return f"n{next(counter)}"

        graph = ActivityGraph(spec.name, xmi_id="g1")
        model = UmlModel(name=spec.name, xmi_id="m1")
        model.add_activity_graph(graph)

        prev = graph.add_initial(xmi_id=nid())
        cur_box: dict[int, object] = {}
        stars: dict[int, int] = {}
        loc_now: dict[int, str] = {}

        def new_box(t: int, loc: str):
            stars[t] = stars.get(t, -1) + 1
            token = spec.tokens[t]
            name = f"{token.obj}{'*' * stars[t]}: {token.cls}"
            return graph.add_object(name, atloc=loc, xmi_id=nid())

        def add_token_action(t: int, action: str, *, move: bool,
                             out_loc: str, prev_ctrl, prev_box):
            node = graph.add_action(action, move=move, xmi_id=nid())
            graph.connect(prev_ctrl, node, xmi_id=nid())
            graph.connect(prev_box, node, xmi_id=nid())
            box = new_box(t, out_loc)
            graph.connect(node, box, xmi_id=nid())
            return node, box

        for step in spec.chain:
            if step.kind == "static":
                node = graph.add_action(step.action, xmi_id=nid())
                node.set_tag("performedBy", step.target or "")
                graph.connect(prev, node, xmi_id=nid())
                prev = node
                continue
            t = step.token
            assert t is not None
            if t not in cur_box:
                loc_now[t] = spec.tokens[t].initial
                cur_box[t] = new_box(t, loc_now[t])
            if step.kind == "move":
                loc_now[t] = step.target or loc_now[t]
            prev, cur_box[t] = add_token_action(
                t, step.action, move=step.kind == "move",
                out_loc=loc_now[t], prev_ctrl=prev, prev_box=cur_box[t],
            )

        if spec.decision is not None:
            t = 0
            decision = graph.add_decision(xmi_id=nid())
            graph.connect(prev, decision, xmi_id=nid())
            shared_box = cur_box[t]
            ends = []
            for branch in spec.decision.branches:
                ctrl, box = decision, shared_box
                for action in branch:
                    node, box = add_token_action(
                        t, action, move=False, out_loc=loc_now[t],
                        prev_ctrl=ctrl, prev_box=box,
                    )
                    ctrl = node
                ends.append(ctrl)
            final = graph.add_final(xmi_id=nid())
            for end in ends:
                graph.connect(end, final, xmi_id=nid())
        else:
            final = graph.add_final(xmi_id=nid())
            graph.connect(prev, final, xmi_id=nid())
        return model

    def xmi_text(self) -> str:
        """The XMI document (cached; identical bytes per seed)."""
        if self._xmi is None:
            from repro.uml.xmi.writer import write_model

            self._xmi = write_model(self.build_model())
        return self._xmi

    # -- direct PEPA-net rendering --------------------------------------
    def build_net(self) -> PepaNet:
        """The PEPA net the extractor *should* produce, built directly.

        Mirrors :mod:`repro.extract.activity2pepanet` rule for rule —
        including the alias constant closing each component's cycle,
        which reproduces the extractor's distinct transient initial
        state (``Const(family)`` differs structurally from the cycle's
        re-entry state even though they behave identically).
        """
        spec = self.spec
        rates = dict(spec.rates)
        env = Environment()
        order = _token_order(spec)
        firing: set[str] = {
            s.action for s in spec.chain if s.kind == "move"
        }
        reset_specs: list[NetTransitionSpec] = []
        alphabets: dict[int, set[str]] = {}

        for t in order:
            base = f"Tok{t}"
            route = _token_route(spec, t)
            alphabet = {s.action for s, _, _ in route}
            linear = [(s.action, rates[s.action]) for s, _, _ in route]
            final_loc = _token_final_location(spec, t)
            names = [base] + [f"{base}_{i}" for i in range(1, len(linear) + 1)]

            if spec.decision is not None and t == 0:
                # linear prefix chain up to the decision state ...
                for i, (action, rate) in enumerate(linear):
                    env.define(names[i], Prefix(action, ActiveRate(rate),
                                                Const(names[i + 1])))
                # ... whose body is the choice of both branches' first
                # prefixes; branch tails chain to a shared end constant.
                end = f"{base}_end"
                branch_heads: list[Sequential] = []
                for b, branch in enumerate(spec.decision.branches):
                    tail: Sequential = Const(end)
                    chain_names = [f"{base}_b{b}_{i}"
                                   for i in range(1, len(branch))]
                    for i, action in enumerate(branch):
                        alphabet.add(action)
                        nxt = (Const(chain_names[i])
                               if i < len(branch) - 1 else tail)
                        prefix = Prefix(action, ActiveRate(rates[action]), nxt)
                        if i == 0:
                            branch_heads.append(prefix)
                        else:
                            env.define(chain_names[i - 1], prefix)
                env.define(names[-1], Choice(branch_heads[0], branch_heads[1]))
                end_name = end
            else:
                for i, (action, rate) in enumerate(linear):
                    env.define(names[i], Prefix(action, ActiveRate(rate),
                                                Const(names[i + 1])))
                end_name = names[-1]

            initial = spec.tokens[t].initial
            if final_loc == initial:
                if end_name == base:
                    # a token with no steps at all never happens in
                    # generated specs, but shrinking guards against it
                    raise ValueError(f"token {t} has an empty behaviour")
                env.define(end_name, Const(base))
            else:
                reset_action = f"reset_{spec.tokens[t].obj}"
                env.define(end_name, Prefix(reset_action,
                                            ActiveRate(spec.reset_rate),
                                            Const(base)))
                firing.add(reset_action)
                alphabet.add(reset_action)
                reset_specs.append(NetTransitionSpec(
                    name=f"{reset_action}_{final_loc}",
                    action=reset_action,
                    rate=ActiveRate(spec.reset_rate),
                    inputs=(final_loc,),
                    outputs=(initial,),
                ))
            alphabets[t] = alphabet

        static_by_place: dict[str, list[str]] = {}
        for s in _static_steps(spec):
            static_by_place.setdefault(s.target or "", []).append(s.action)
        static_names: dict[str, str] = {}
        static_alphabets: dict[str, set[str]] = {}
        for place in _place_order(spec):
            actions = static_by_place.get(place)
            if not actions:
                continue
            base = f"St{place}"
            names = [base] + [f"{base}_{i}" for i in range(1, len(actions) + 1)]
            for i, action in enumerate(actions):
                env.define(names[i], Prefix(action, ActiveRate(rates[action]),
                                            Const(names[i + 1])))
            env.define(names[-1], Const(base))
            static_names[place] = base
            static_alphabets[place] = set(actions)

        net = PepaNet(environment=env)
        for place in _place_order(spec):
            parts: list[tuple[Expression, set[str], Sequential | None]] = []
            for t in order:
                if place not in _token_visited(spec, t):
                    continue
                base = f"Tok{t}"
                initial = (Const(base)
                           if spec.tokens[t].initial == place else None)
                parts.append((Cell(base, None), set(alphabets[t]), initial))
            if place in static_names:
                parts.append((Const(static_names[place]),
                              set(static_alphabets[place]), None))
            expr = parts[0][0]
            alphabet = set(parts[0][1])
            for other, other_alpha, _ in parts[1:]:
                shared = (alphabet & other_alpha) - firing
                expr = Cooperation(expr, other, frozenset(shared))
                alphabet |= other_alpha
            contents = tuple(initial for part, _, initial in parts
                             if isinstance(part, Cell))
            net.add_place(PlaceDef(place, expr, contents))

        for t in order:
            for step, before, _after in _token_route(spec, t):
                if step.kind == "move":
                    net.add_transition(NetTransitionSpec(
                        name=step.action, action=step.action,
                        rate=ActiveRate(rates[step.action]),
                        inputs=(before,), outputs=(step.target or before,),
                    ))
        for reset in reset_specs:
            net.add_transition(reset)
        return net

    def net_text(self) -> str:
        """The textual PEPA-net form (cached; identical bytes per seed)."""
        if self._net_text is None:
            self._net_text = net_source(self.build_net())
        return self._net_text

    # -- identity -------------------------------------------------------
    def fingerprint(self) -> str:
        """SHA-256 over both renderings and the rate regime — the
        regression pin the golden mini-corpus freezes."""
        payload = "\x00".join((
            self.xmi_text(),
            self.net_text(),
            json.dumps({"rates": sorted(self.spec.rates),
                        "reset_rate": self.spec.reset_rate}, sort_keys=True),
        ))
        return hashlib.sha256(payload.encode()).hexdigest()


# ----------------------------------------------------------------------
# Spec (de)serialisation — reproducer files and regression tests
# ----------------------------------------------------------------------
def spec_to_json(spec: ScenarioSpec) -> str:
    """Serialise a spec as stable, diff-friendly JSON."""
    doc = {
        "schema": "repro-scenario/1",
        "seed": spec.seed,
        "name": spec.name,
        "tokens": [[t.obj, t.cls, t.initial] for t in spec.tokens],
        "chain": [[s.kind, s.token, s.action, s.target] for s in spec.chain],
        "decision": (list(map(list, spec.decision.branches))
                     if spec.decision else None),
        "rates": [[name, rate] for name, rate in spec.rates],
        "reset_rate": spec.reset_rate,
    }
    return json.dumps(doc, indent=2) + "\n"


def spec_from_json(text: str) -> ScenarioSpec:
    """Rebuild a spec from :func:`spec_to_json` output."""
    doc = json.loads(text)
    if doc.get("schema") != "repro-scenario/1":
        raise ValueError(f"not a repro-scenario/1 document: {doc.get('schema')!r}")
    decision = None
    if doc["decision"] is not None:
        decision = DecisionSpec(branches=tuple(
            tuple(branch) for branch in doc["decision"]))  # type: ignore[arg-type]
    return ScenarioSpec(
        seed=doc["seed"],
        name=doc["name"],
        tokens=tuple(TokenSpec(*entry) for entry in doc["tokens"]),
        chain=tuple(ChainStep(*entry) for entry in doc["chain"]),
        decision=decision,
        rates=tuple((name, float(rate)) for name, rate in doc["rates"]),
        reset_rate=float(doc["reset_rate"]),
    )


# ----------------------------------------------------------------------
# Corpus entry points (batch tasks / tests)
# ----------------------------------------------------------------------
def corpus_net(seed: int) -> PepaNet:
    """The direct PEPA net of one corpus scenario (importable from
    spawn workers)."""
    return generate_scenario(seed).build_net()


def corpus_source(seed: int) -> str:
    """The textual PEPA net of one corpus scenario — what ``--corpus``
    batch tasks carry as their payload."""
    return generate_scenario(seed).net_text()
