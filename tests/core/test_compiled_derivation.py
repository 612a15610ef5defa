"""Differential battery: compiled derivation against the term-level reference.

:func:`repro.pepa.statespace.explore` and
:func:`repro.pepanets.semantics.explore_net` search over tuples of leaf
states (:mod:`repro.pepa.compiled`, :mod:`repro.pepanets.compiled`).
Their references, :func:`~repro.pepa.statespace.explore_reference` and
:func:`~repro.pepanets.semantics.explore_net_reference`, run the same
breadth-first kernel straight over the term-level semantics
(:func:`~repro.pepa.semantics.derivatives`,
:func:`~repro.pepanets.semantics.net_arcs`).  States, arc lists and
float rates must be equal exactly, and so must every error either path
raises.  The PEPA search runs a level at a time
(:func:`repro.core.explore.explore_levels`), so its ceiling, budget
checkpoints, progress events and failing state are checked against the
per-state reference too.
"""

from __future__ import annotations

import pytest

from repro.exceptions import RateError, ReproError, StateSpaceError, WellFormednessError
from repro.obs import EventStream, ObsContext, Tracer, use_obs
from repro.pepa.environment import Environment, PepaModel
from repro.pepa.parser import parse_model
from repro.pepa.rates import ActiveRate, PassiveRate
from repro.pepa.statespace import explore, explore_reference
from repro.pepa.syntax import Cell, Const, Cooperation, Prefix
from repro.pepanets import parse_net
from repro.pepanets.semantics import explore_net, explore_net_reference
from repro.pepanets.syntax import NetTransitionSpec, PepaNet, PlaceDef
from repro.scenarios import GeneratorParams, generate_scenario
from tests.core._equivalence import CASES, _builders

#: The generator parameters of perfbench's ``heavy`` catalog family
#: (``corpus`` uses the defaults).
HEAVY = GeneratorParams(max_tokens=3, max_activities_per_segment=3)

SCENARIOS = [("corpus", seed) for seed in range(160)] + [("heavy", seed) for seed in range(40)]


def assert_same_space(compiled, reference) -> None:
    assert [str(s) for s in compiled.states] == [str(s) for s in reference.states]
    assert compiled.states == reference.states
    # LabelledArc equality compares rates with ==: exact floats
    assert compiled.arcs == reference.arcs


def same_pepa(model: PepaModel, **kwargs) -> None:
    assert_same_space(
        explore(model.system, model.environment, **kwargs),
        explore_reference(model.system, model.environment, **kwargs),
    )


def same_net(net: PepaNet, **kwargs) -> None:
    assert_same_space(explore_net(net, **kwargs), explore_net_reference(net, **kwargs))


def outcome(run) -> tuple[type, str] | None:
    try:
        run()
    except ReproError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("family,seed", SCENARIOS, ids=[f"{f}-{s}" for f, s in SCENARIOS])
def test_generated_scenario(family, seed):
    params = HEAVY if family == "heavy" else None
    same_net(generate_scenario(seed, params).build_net())


@pytest.mark.parametrize("family,kind,size", CASES, ids=[c[0] for c in CASES])
def test_equivalence_family(family, kind, size):
    model = _builders()[family](**size)
    if kind == "pepa":
        same_pepa(model)
    else:
        same_net(model)


class TestHandCases:
    def test_constant_system_equation_keeps_its_own_state(self):
        model = parse_model(
            "P = (a, 1.0).Q; Q = (b, 2.0).P; R = (a, T).R; Sys = P <a> R; Sys"
        )
        space = explore(model.system, model.environment)
        assert [str(s) for s in space.states] == ["Sys", "Q <a> R", "P <a> R"]
        same_pepa(model)

    def test_constant_naming_a_cooperation_inside_the_system(self):
        model = parse_model("""
            C = (req, 1.0).W; W = (resp, T).C;
            S = (req, T).B; B = (resp, 3.0).S;
            Clients = C || C;
            Clients <req, resp> S
        """)
        same_pepa(model)

    def test_nested_cooperation_on_one_action(self):
        """The outer synchronisation reads the inner cooperation's
        apparent rate, min(3, 1), which differs from either side's."""
        same_pepa(parse_model("""
            P = (a, 3.0).P2; P2 = (b, 1.0).P;
            Q = (a, 1.0).Q + (c, 1.0).Q;
            R = (a, 2.0).R2; R2 = (d, 5.0).R;
            (P <a> Q) <a> R
        """))

    def test_hiding_and_exclusion(self):
        """Hiding, hiding again over the ``tau`` the first one made, and
        an action held back by a partner that never offers it."""
        defs = """
            P = (a, 1.0).Q + (c, 0.5).P; Q = (b, 2.0).P;
            R = (a, T).R2; R2 = (b, T).R;
            Z = (z, 1.0).Z;
        """
        for system in ("(P <a, b> R)/{a}", "((P <a, b> R)/{a})/{b}",
                       "((P <a, b> R)/{a}) <c> Z", "((P <a, b> R)/{a, c}) <c> Z"):
            same_pepa(parse_model(defs + system))

    def test_wildcard_cooperation(self):
        model = parse_model("""
            P = (a, 1.0).Q; Q = (b, 2.0).P + (c, 1.0).P;
            R = (a, T).R2; R2 = (b, 4.0).R;
            P <*> R
        """)
        same_pepa(model)
        same_net(parse_net("""
            Tok = (a, 1.0).Tok2; Tok2 = (go, 2.0).Tok;
            S = (a, T).S;
            A[Tok] = Tok[_] <*> S;
            B[_] = Tok[_];
            go = (go, 1.5) : A -> B;
            back = (go, 0.5) : B -> A;
        """))

    def test_hiding_inside_a_place_context(self):
        same_net(parse_net("""
            Tok = (go, 1.0).Tok2 + (loc, 2.0).Tok;
            Tok2 = (back, 3.0).Tok + (hid, 1.5).Tok2;
            S = (hid, T).S;
            A[Tok, Tok] = (Tok[_] <hid> S)/{hid} || Tok[_];
            B[_, _] = Tok[_] || Tok2[_];
            go = (go, 2.0) : A -> B;
            back = (back, 1.0) : B -> A;
        """))

    def test_priorities(self):
        same_net(parse_net("""
            Tok = (fast, 1.0).Tok + (slow, 5.0).Tok;
            A[Tok, _] = Tok[_] || Tok[_];
            B[_, _] = Tok[_] || Tok[_];
            fast = (fast, 2.0, 2) : A -> B;
            slow = (slow, 9.0, 1) : A -> B;
            home = (slow, 1.0, 1) : B -> A;
        """))

    def test_repeated_input_place(self):
        same_net(parse_net("""
            Tok = (pair, 1.0).Tok + (pair, 2.0).Tok;
            A[Tok, Tok, Tok] = Tok[_] || Tok[_] || Tok[_];
            B[_, _, _] = Tok[_] || Tok[_] || Tok[_];
            pair = (pair, 4.0) : A, A -> B, B;
            back = (pair, 1.0) : B, B -> A, A;
        """))

    def test_output_capacity(self):
        """Concession depends on output vacancy as well as on the input
        tokens: the same tokens at A face a full B, where only the
        lower-priority ``empty`` may fire, and then an empty B."""
        same_net(parse_net("""
            Tok = (go, 1.0).Tok;
            A[Tok, Tok] = Tok[_] || Tok[_];
            B[Tok] = Tok[_];
            C[_] = Tok[_];
            go = (go, 2.0, 2) : A -> B;
            fill = (go, 1.0) : C -> B;
            empty = (go, 3.0) : B -> C;
        """))

    def test_passive_tokens(self):
        same_net(parse_net("""
            Pas = (go, T).Pas2; Pas2 = (go, 2*T).Pas;
            Act = (go, 2.0).Act;
            A[Pas, Pas] = Pas[_] || Pas[_];
            B[_, _] = Pas[_] || Pas[_];
            C[Act] = Act[_];
            D[_] = Act[_];
            go = (go, 3.0) : A -> B;
            home = (go, 1.0) : B -> A;
            mixed = (go, T) : A, C -> B, D;
            ret = (go, 1.0) : D -> C;
        """))

    def test_compiled_search_never_builds_the_state_index(self):
        model = _builders()["client_server"](n_clients=3)
        space = explore(model.system, model.environment)
        net_space = explore_net(_builders()["courier_ring"](n_places=3, n_couriers=2))
        assert space.index_builds == net_space.index_builds == 0
        assert net_space.index[net_space.markings[5]] == 5

    def test_state_ceiling_is_hit_at_the_same_state(self):
        model = _builders()["client_server"](n_clients=3)
        assert outcome(lambda: explore(model.system, model.environment, max_states=7)) \
            == outcome(lambda: explore_reference(model.system, model.environment,
                                                 max_states=7)) \
            == (StateSpaceError, "state space exceeds the configured bound of 7 "
                "states; raise max_states or aggregate the model")
        net = _builders()["courier_ring"](n_places=3, n_couriers=2)
        assert outcome(lambda: explore_net(net, max_states=4)) \
            == outcome(lambda: explore_net_reference(net, max_states=4)) \
            == (StateSpaceError, "PEPA-net marking space exceeds 4 states")


# ----------------------------------------------------------------------
# Error parity
# ----------------------------------------------------------------------
def _pepa(env: Environment, system) -> PepaModel:
    return PepaModel(env, system)


def _unguarded() -> PepaModel:
    env = Environment()
    env.define("X", Const("X"))
    env.define("Y", Prefix("a", ActiveRate(1.0), Const("Y")))
    return _pepa(env, Cooperation(Const("Y"), Const("X"), frozenset()))


def _undefined() -> PepaModel:
    env = Environment()
    env.define("Y", Prefix("a", ActiveRate(1.0), Const("Z")))
    return _pepa(env, Cooperation(Const("Y"), Const("Y"), frozenset()))


def _passive_top() -> PepaModel:
    return parse_model("P = (a, 1.0).Q; Q = (b, T).P; R = (a, T).R; P <a> R")


def _mixed_apparent() -> PepaModel:
    return parse_model("P = (a, 1.0).P + (a, T).P; Q = (a, 1.0).Q; P <a> Q")


def _net(env: Environment, places: list[PlaceDef], specs: list[NetTransitionSpec]) -> PepaNet:
    net = PepaNet(environment=env)
    for place in places:
        net.add_place(place)
    for spec in specs:
        net.add_transition(spec)
    return net


def _passive_place() -> PepaNet:
    return parse_net("""
        Tok = (go, 1.0).Tok; S = (tick, 1.0).S2; S2 = (tock, T).S;
        A[Tok] = Tok[_] || S;
        B[_] = Tok[_];
        go = (go, 1.0) : A -> B;
    """)


def _mixed_tokens() -> PepaNet:
    return parse_net("""
        Act = (go, 1.0).Act; Pas = (go, T).Pas;
        A[Act, Pas] = Act[_] || Pas[_];
        B[_, _] = Act[_] || Pas[_];
        go = (go, 1.0) : A -> B;
    """)


def _all_passive_firing() -> PepaNet:
    return parse_net("""
        Tok = (go, T).Tok;
        A[Tok] = Tok[_];
        B[_] = Tok[_];
        go = (go, T) : A -> B;
    """)


def _non_sequential_family() -> PepaNet:
    env = Environment()
    env.define("Tok", Prefix("go", ActiveRate(1.0), Const("Tok")))
    env.define("Bad", Prefix("go", ActiveRate(1.0), Const("Sys")))
    env.define("Sys", Cooperation(Const("Tok"), Const("Tok"), frozenset()))
    return _net(
        env,
        [PlaceDef("A", Cell("Tok"), (Const("Tok"),)), PlaceDef("B", Cell("Bad"), (None,))],
        [NetTransitionSpec("go", "go", ActiveRate(1.0), ("A",), ("B",))],
    )


def _non_sequential_content() -> PepaNet:
    env = Environment()
    env.define("Tok", Prefix("step", ActiveRate(1.0), Const("Sys")))
    env.define("Sys", Cooperation(Const("Tok"), Const("Tok"), frozenset()))
    env.define("Other", Prefix("go", PassiveRate(), Const("Other")))
    return _net(
        env,
        [PlaceDef("A", Cell("Tok"), (Const("Tok"),)), PlaceDef("B", Cell("Other"), (None,))],
        [NetTransitionSpec("go", "go", ActiveRate(1.0), ("A",), ("B",))],
    )


PEPA_ERRORS = {
    "unguarded-recursion": (_unguarded, WellFormednessError),
    "undefined-constant": (_undefined, WellFormednessError),
    "passive-at-top-level": (_passive_top, WellFormednessError),
    "mixed-apparent-rate": (_mixed_apparent, RateError),
}

NET_ERRORS = {
    "passive-at-place-level": (_passive_place, WellFormednessError),
    "mixed-active-passive-tokens": (_mixed_tokens, WellFormednessError),
    "all-passive-firing": (_all_passive_firing, WellFormednessError),
    "non-sequential-family": (_non_sequential_family, WellFormednessError),
    "non-sequential-content": (_non_sequential_content, WellFormednessError),
}


@pytest.mark.parametrize("name", sorted(PEPA_ERRORS))
def test_pepa_error_parity(name):
    build, kind = PEPA_ERRORS[name]
    model = build()
    compiled = outcome(lambda: explore(model.system, model.environment))
    reference = outcome(lambda: explore_reference(model.system, model.environment))
    assert reference is not None and reference[0] is kind
    assert compiled == reference


@pytest.mark.parametrize("name", sorted(NET_ERRORS))
def test_net_error_parity(name):
    build, kind = NET_ERRORS[name]
    net = build()
    compiled = outcome(lambda: explore_net(net))
    reference = outcome(lambda: explore_net_reference(net))
    assert reference is not None and reference[0] is kind
    assert compiled == reference


# ----------------------------------------------------------------------
# The write-row kernel: rows carry leaf writes, arcs land in arrays
# ----------------------------------------------------------------------
def assert_same_arrays(compiled, reference) -> None:
    """The stored arc arrays agree exactly, before anything is rendered."""
    assert compiled.arc_builds == compiled.state_builds == 0
    ours, theirs = compiled.arc_arrays, reference.arc_arrays
    assert ours.actions == theirs.actions
    for field in ("source", "target", "action"):
        assert getattr(ours, field).tolist() == getattr(theirs, field).tolist()
    assert ours.rate.tobytes() == theirs.rate.tobytes()   # bit for bit
    assert compiled.size == reference.size


def same_kernel_pepa(model: PepaModel) -> None:
    compiled = explore(model.system, model.environment)
    reference = explore_reference(model.system, model.environment)
    assert_same_arrays(compiled, reference)
    assert_same_space(compiled, reference)
    assert compiled.state_builds == compiled.arc_builds == 1


def same_kernel_net(net: PepaNet) -> None:
    compiled, reference = explore_net(net), explore_net_reference(net)
    assert_same_arrays(compiled, reference)
    assert_same_space(compiled, reference)


class TestWriteRowKernel:
    def test_hiding_over_cooperation(self):
        """Synchronised rows renamed to tau by an enclosing hiding keep
        their joined writes; the hidden node sits under another
        cooperation."""
        same_kernel_pepa(parse_model("""
            P = (a, 1.0).P2 + (c, 2.0).P; P2 = (b, 3.0).P;
            Q = (a, 2.0).Q2; Q2 = (e, 1.0).Q;
            R = (b, T).R + (d, 0.5).R;
            ((P <a> Q)/{a}) <b> R
        """))

    def test_shared_action_with_several_partners_on_each_side(self):
        """Two partners on each side, each with two ``a`` rows: every
        left row meets every right row, and each join writes leaves on
        both sides of the tree."""
        same_kernel_pepa(parse_model("""
            P = (a, 1.0).P2 + (a, 2.0).P3; P2 = (b, 1.0).P; P3 = (c, 4.0).P;
            Q = (a, T).Q2 + (a, 2*T).Q; Q2 = (e, 1.5).Q;
            (P || P) <a> (Q || Q)
        """))

    def test_constant_naming_the_system_equation(self):
        model = parse_model("""
            P = (a, 1.0).P2; P2 = (b, 2.0).P;
            R = (a, T).R2; R2 = (c, 3.0).R;
            Sys = (P <a> R)/{c};
            Sys
        """)
        same_kernel_pepa(model)
        assert str(explore(model.system, model.environment).states[0]) == "Sys"

    def test_passive_at_top_level_reached_later(self):
        """The error names a state reached by the search (a rendered leaf
        tuple), not the initial one, in the same words."""
        model = parse_model("""
            P = (a, 1.0).P2; P2 = (b, T).P;
            R = (a, T).R;
            Sys = P <a> R;
            Sys
        """)
        compiled = outcome(lambda: explore(model.system, model.environment))
        reference = outcome(lambda: explore_reference(model.system, model.environment))
        assert compiled == reference
        assert compiled[0] is WellFormednessError
        assert "passive at the top level" in compiled[1]
        assert "P2 <a> R" in compiled[1]

    def test_cells_vacant_and_filled_with_place_locals_and_firings(self):
        """Local rows of a place whose cells cooperate with a static
        component, vacant cells, and firings that write several cells of
        several places: one marking tuple, one write form."""
        same_kernel_net(parse_net("""
            Tok = (work, 1.0).Tok2 + (go, 2.0).Tok; Tok2 = (rest, 3.0).Tok;
            S = (work, T).S2; S2 = (reset, 1.0).S;
            A[Tok, _, Tok] = (Tok[_] <work> S) || Tok[_] || Tok[_];
            B[_, _] = Tok[_] || Tok[_];
            go = (go, 2.0) : A -> B;
            back = (go, 1.0) : B -> A;
        """))


# ----------------------------------------------------------------------
# The level kernel: ceiling, budget, progress and errors where the
# per-state search has them
# ----------------------------------------------------------------------
LEVEL_MODELS = {
    "client_server": lambda: _builders()["client_server"](n_clients=3),
    "tandem_queue": lambda: _builders()["tandem_queue"](stages=2, capacity=3),
}


def traced(run):
    """The outcome of ``run`` and the attributes of its statespace span."""
    tracer = Tracer()
    with use_obs(ObsContext(tracer=tracer)):
        result = outcome(run)
    (span,) = [s for s in tracer.roots if s.name == "pepa.statespace"]
    return result, {k: v for k, v in span.attributes.items()
                    if k not in ("levels", "max_frontier")}


@pytest.mark.parametrize("name", sorted(LEVEL_MODELS))
def test_ceiling_at_every_bound(name):
    model = LEVEL_MODELS[name]()
    size = explore_reference(model.system, model.environment).size
    for bound in range(1, size + 1):
        ours = traced(lambda: explore(model.system, model.environment, max_states=bound))
        theirs = traced(lambda: explore_reference(model.system, model.environment,
                                                  max_states=bound))
        assert ours == theirs, bound
        assert (ours[0] is None) == (bound == size)


class CountingBudget:
    """Records every checkpoint; never runs out."""

    def __init__(self):
        self.calls: list[dict] = []

    def checkpoint(self, **fields) -> None:
        self.calls.append(fields)


def layer_widths(model: PepaModel) -> list[int]:
    """How many states lie at each breadth-first distance from state 0,
    read off the reference search's arcs."""
    space = explore_reference(model.system, model.environment)
    arcs = space.arc_arrays
    depth = [0] + [-1] * (space.size - 1)
    for src, tgt in zip(arcs.source.tolist(), arcs.target.tolist()):
        if depth[tgt] < 0:      # arcs leave states in discovery order
            depth[tgt] = depth[src] + 1
    return [depth.count(d) for d in range(max(depth) + 1)]


def constant_model() -> PepaModel:
    return parse_model("P = (a, 1.0).Q; Q = (b, 2.0).P; R = (a, T).R; Sys = P <a> R; Sys")


@pytest.mark.parametrize("name", sorted(LEVEL_MODELS) + ["constant"])
def test_checkpoint_calls_match(name):
    """One checkpoint per level, before its expansion: the states found
    so far and the level's width, as many as the span's ``levels``."""
    model = LEVEL_MODELS[name]() if name in LEVEL_MODELS else constant_model()
    widths = layer_widths(model)
    budget, tracer = CountingBudget(), Tracer()
    with use_obs(ObsContext(tracer=tracer)):
        explore(model.system, model.environment, budget=budget)
    (span,) = tracer.roots
    assert len(budget.calls) == span.attributes["levels"] == len(widths)
    assert budget.calls == [
        {"stage": "pepa state space", "explored": sum(widths[:d + 1]), "frontier": width}
        for d, width in enumerate(widths)
    ]


def test_checkpoints_stop_where_the_ceiling_does():
    """A search stopped by the ceiling made the unbounded search's
    checkpoints up to the level that found one state too many."""
    model = LEVEL_MODELS["client_server"]()
    full, bounded = CountingBudget(), CountingBudget()
    explore(model.system, model.environment, budget=full)
    with pytest.raises(StateSpaceError):
        explore(model.system, model.environment, max_states=9, budget=bounded)
    m = len(bounded.calls)
    assert bounded.calls == full.calls[:m]
    assert bounded.calls[-1]["explored"] <= 9 < full.calls[m]["explored"]


def progress_fields(run, monkeypatch) -> list[dict]:
    from repro.core import explore as kernel

    monkeypatch.setattr(kernel, "PROGRESS_INTERVAL", 2)
    stream = EventStream()
    with use_obs(ObsContext(events=stream)):
        outcome(run)
    return [{k: v for k, v in e.fields.items() if k not in ("states_per_sec", "elapsed_s")}
            for e in stream.by_name("explore.progress")]


@pytest.mark.parametrize("name", sorted(LEVEL_MODELS))
def test_progress_events_match(name, monkeypatch):
    """With ``PROGRESS_INTERVAL = 2``: one event after each level whose
    new states carry the count past a multiple of 2, with the next
    level's width as the frontier, then a final event; a search stopped
    by the ceiling stops its events at the last level it completed."""
    model = LEVEL_MODELS[name]()
    widths = layer_widths(model)
    expected, n = [], 1
    for found in widths[1:] + [0]:
        if (n + found) // 2 > n // 2:
            expected.append({"stage": "pepa.statespace", "explored": n + found,
                             "frontier": found})
        n += found
    final = {"stage": "pepa.statespace", "explored": n, "frontier": 0}
    assert progress_fields(lambda: explore(model.system, model.environment),
                           monkeypatch) == expected + [final]
    assert progress_fields(lambda: explore(model.system, model.environment, max_states=7),
                           monkeypatch) == [e for e in expected if e["explored"] <= 7]
    assert len(expected) > 2


def failing_state(model: PepaModel) -> int:
    """How many states the search has found when it raises its error:
    it fails expanding the last of them, so with room for one state
    fewer it stops at the ceiling first.  The reference agrees at every
    bound."""
    def both(**kwargs):
        ours = outcome(lambda: explore(model.system, model.environment, **kwargs))
        assert ours == outcome(lambda: explore_reference(
            model.system, model.environment, **kwargs))
        return ours

    error = both()
    bound = 1
    while both(max_states=bound)[0] is StateSpaceError:
        bound += 1
    assert both(max_states=bound) == error
    return bound


class TestLevelErrors:
    def test_blocked_ill_formed_derivative_is_never_derived(self, monkeypatch):
        """``Bad`` and ``Nowhere`` are local derivatives of ``P`` behind an
        ``a`` its partner never offers: neither search derives them."""
        from repro.pepa import compiled

        model = parse_model("""
            P = (a, 1.0).Bad + (b, 1.0).P + (c, 1.0).Nowhere;
            Bad = Bad2; Bad2 = Bad;
            Q = (d, 2.0).Q2; Q2 = (e, 1.0).Q;
            P <a, c> Q
        """)
        derived: list[str] = []
        rows = compiled.LeafTable.rows

        def recording(table, tid):
            derived.append(str(table.terms[tid]))
            return rows(table, tid)

        monkeypatch.setattr(compiled.LeafTable, "rows", recording)
        same_kernel_pepa(model)
        assert sorted(set(derived)) == ["P", "Q", "Q2"]

    def test_apparent_rate_clash_only_where_synchronised(self):
        """``P2`` enables ``a`` both actively and passively; that only
        matters once ``Q`` offers ``a`` too, in the third state."""
        model = parse_model("""
            P = (b, 1.0).P2; P2 = (a, 1.0).P + (a, T).P + (e, 1.0).P2;
            Q = (c, 1.0).Q2; Q2 = (a, 1.0).Q;
            P <a> Q
        """)
        assert outcome(lambda: explore(model.system, model.environment))[0] is RateError
        assert failing_state(model) == 4
        # Without the passive ``a`` the same four states come first, so
        # the search fails expanding P2 <a> Q2.
        clean = parse_model("""
            P = (b, 1.0).P2; P2 = (a, 1.0).P + (e, 1.0).P2;
            Q = (c, 1.0).Q2; Q2 = (a, 1.0).Q;
            P <a> Q
        """)
        assert [str(s) for s in explore(clean.system, clean.environment).states][:4] == \
            ["P <a> Q", "P2 <a> Q", "P <a> Q2", "P2 <a> Q2"]

    def test_underflowing_joint_rate(self):
        """(1e-200 / 1) * (1e-200 / 1) * 1 underflows to 0, not an active
        rate: the error of the state that synchronises, after a step."""
        model = parse_model("""
            P = (b, 1.0).P2; P2 = (a, 1.0e-200).P + (a, 1.0).P;
            Q = (a, 1.0e-200).Q + (a, 1.0).Q;
            P <a> Q
        """)
        assert outcome(lambda: explore(model.system, model.environment))[0] is RateError
        assert failing_state(model) == 2   # it fails expanding P2 <a> Q

    def test_error_and_ceiling_in_one_level(self):
        """Whichever the per-state search meets first wins."""
        model = parse_model("""
            P = (b, 1.0).P2 + (f, 1.0).P3; P2 = (b, T).P; P3 = (g, 1.0).P3;
            R = (h, 1.0).R2; R2 = (h, 1.0).R;
            P || R
        """)
        for bound in range(1, 8):
            assert traced(lambda: explore(model.system, model.environment,
                                          max_states=bound)) == \
                traced(lambda: explore_reference(model.system, model.environment,
                                                 max_states=bound))


def test_deep_search_finds_old_states_in_either_run():
    """Narrow, deep searches: the recently found rows merge into the
    bulk of the known rows as the search goes, and arcs lead back to
    states in both."""
    ring = ["P0 = (a, 1.0).P1;"] + [
        f"P{i} = (a, 1.0).P{(i + 1) % 60} + (b, 2.0).P{i - 1};" for i in range(1, 60)]
    same_kernel_pepa(parse_model("\n".join(ring) + """
        Q = (a, T).Q2 + (c, 3.0).Q; Q2 = (c, 1.0).Q;
        P0 <a> Q
    """))
    same_kernel_pepa(_builders()["tandem_queue"](stages=2, capacity=12))


def test_span_reports_levels_and_widest_frontier():
    model = LEVEL_MODELS["client_server"]()
    tracer = Tracer()
    with use_obs(ObsContext(tracer=tracer)):
        space = explore(model.system, model.environment)
    (span,) = tracer.roots
    assert span.attributes["states"] == space.size
    assert span.attributes["levels"] >= 2
    assert 1 <= span.attributes["max_frontier"] < space.size
