"""The compiled net search's firing memo and the measures read off
marking rows.

Concession and the resolved firings are evaluated once per *firing
key*: each input cell's content reduced to its firing rows for the
transition's action (vacant and non-firing contents alike), plus the
output cells' vacancy.  The mobility measures read the occupied-cell
matrix taken from the compiled rows, so solving a net renders no
marking, and a cache hit reads the same matrix back.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.batch.cache import DerivationCache, use_cache
from repro.choreographer import Choreographer
from repro.extract.rates import RateTable, parse_rates
from repro.obs import EventStream, MetricsRegistry, ObsContext, Tracer, use_obs
from repro.pepa.semantics import derivatives
from repro.pepanets import analyse_net, explore_net, find_cells, parse_net
from repro.pepanets.semantics import CACHE_SCHEMA, explore_net_reference
from repro.scenarios import GeneratorParams, generate_scenario
from repro.scenarios.fuzz import term_location_distribution

MODELS = Path(__file__).resolve().parents[2] / "examples" / "models"

#: Two tokens that work locally twice between moves: in three of their
#: four local states they cannot fire the transition that reads them.
SHUTTLE_SRC = """
Tok  = (think, 2.0).Tok1;
Tok1 = (go, 1.0).Tok2;
Tok2 = (rest, 3.0).Tok3;
Tok3 = (back, 1.5).Tok;

A[Tok, Tok] = Tok[_] || Tok[_];
B[_, _]     = Tok[_] || Tok[_];

go   = (go, 1.0)   : A -> B;
back = (back, 1.5) : B -> A;
"""

#: The heavy scenario family of the derivation benchmark; seed 447 has
#: 504 markings.
HEAVY = GeneratorParams(max_tokens=3, max_activities_per_segment=3)


def _cells(marking, places):
    return [cell for place in dict.fromkeys(places)
            for _, cell in find_cells(marking.state_of(place))]


def _keys(net, markings, coarse: bool) -> set:
    """Each transition's memo keys over ``markings``, read off the terms:
    the input cells' contents (or, ``coarse``, their firing rows of the
    transition's action) and the output cells' vacancy."""
    env = net.environment
    keys = set()
    for marking in markings:
        for spec in net.transitions.values():
            inputs = tuple(
                cell.content if not coarse else
                () if cell.content is None else
                tuple((tr.rate, tr.target) for tr in derivatives(cell.content, env)
                      if tr.action == spec.action)
                for cell in _cells(marking, spec.inputs)
            )
            vacancy = tuple(cell.content is None for cell in _cells(marking, spec.outputs))
            keys.add((spec.name, inputs, vacancy))
    return keys


class TestFiringKeys:
    def test_concession_is_evaluated_once_per_firing_key(self):
        net = parse_net(SHUTTLE_SRC)
        tracer = Tracer()
        with use_obs(ObsContext(tracer=tracer)):
            space = explore_net(net)
        (span,) = [s for s in tracer.roots if s.name == "pepanet.markingspace"]
        firing_keys = len(_keys(net, space.markings, coarse=True))
        assert span.attributes["firing_keys"] == firing_keys
        # Tokens in non-firing local states share a key with vacant cells.
        assert firing_keys < len(_keys(net, space.markings, coarse=False))

    def test_memo_keeps_the_space_exact(self):
        net = parse_net(SHUTTLE_SRC)
        ours, reference = explore_net(net), explore_net_reference(net)
        assert ours.markings == reference.markings
        assert ours.arcs == reference.arcs
        assert (ours.occupied == reference.occupied).all()


def _heavy(seed: int = 447):
    scenario = generate_scenario(seed, HEAVY)
    return (scenario.xmi_text(), RateTable.from_numbers(scenario.rates),
            scenario.spec.reset_rate)


class TestMeasuresFromRows:
    @pytest.mark.parametrize("document", ["pda_project", "heavy-447"])
    def test_process_xmi_renders_no_marking(self, document):
        if document == "pda_project":
            text = (MODELS / "pda_project.xmi").read_text()
            result = Choreographer().process_xmi(
                text, parse_rates((MODELS / "tomcat.rates").read_text()))
        else:
            text, rates, reset_rate = _heavy()
            result = Choreographer().process_xmi(text, rates, reset_rate=reset_rate)
        assert result.activity_outcomes
        for outcome in result.activity_outcomes:
            analysis = outcome.analysis
            assert analysis.space.state_builds == 0
            locations = analysis.location_distribution()
            assert analysis.space.state_builds == 0
            # The term-level token count agrees (this renders the markings).
            assert locations == term_location_distribution(
                analysis.space.markings, analysis.pi)

    def test_markings_at_matches_the_terms(self, im_net):
        analysis = analyse_net(im_net)
        for place in im_net.places:
            expected = [i for i, m in enumerate(analysis.space.markings)
                        if any(cell.content is not None
                               for _, cell in find_cells(m.state_of(place)))]
            assert expected
            assert analysis.markings_at(place).tolist() == expected

    def test_unknown_place_is_a_key_error(self, ring_net):
        analysis = analyse_net(ring_net)
        with pytest.raises(KeyError, match="unknown place 'Z'"):
            analysis.occupancy("Z")

    def test_family_filter(self, im_net):
        analysis = analyse_net(im_net)
        assert analysis.location_distribution("IM") == term_location_distribution(
            analysis.space.markings, analysis.pi, "IM")
        assert analysis.occupancy("P2", "NoSuchFamily") == 0.0


class TestCachedRows:
    def test_warm_hit_gives_the_cold_locations_bit_for_bit(self, tmp_path):
        net_src = (MODELS / "mobile_agents.pepanet").read_text()
        cold = analyse_net(parse_net(net_src))
        cache = DerivationCache(tmp_path / "cache")
        with use_cache(cache):
            analyse_net(parse_net(net_src))            # publishes
            metrics = MetricsRegistry()
            with use_obs(ObsContext(metrics=metrics)):
                warm = analyse_net(parse_net(net_src))
        assert metrics.counter("cache.hits").value >= 1
        assert warm.space.cache_key is not None
        assert warm.location_distribution() == cold.location_distribution()
        assert (warm.space.occupied == cold.space.occupied).all()

    def test_schema_2_payload_is_stale(self, tmp_path):
        net_src = (MODELS / "mobile_agents.pepanet").read_text()
        cache = DerivationCache(tmp_path / "cache")
        with use_cache(cache):
            space = explore_net(parse_net(net_src))
        key = space.cache_key
        cache.store(key, {"schema": "repro-markingspace/2", "markings": space.markings,
                          "arcs": space.arc_arrays._asdict()})
        events, metrics = EventStream(), MetricsRegistry()
        with use_cache(cache), use_obs(ObsContext(metrics=metrics, events=events)):
            rebuilt = explore_net(parse_net(net_src))
        assert metrics.counter("cache.stale_schema").value == 1
        assert metrics.counter("cache.hits").value == 0
        (stale,) = events.by_name("cache.stale_schema")
        assert stale.fields["schema"] == "repro-markingspace/2"
        assert cache.fetch(key)["schema"] == CACHE_SCHEMA == "repro-markingspace/3"
        assert (rebuilt.occupied == space.occupied).all()
