"""The default steady-state chain is ordered by the size of the chain
solved: sparse LU first below ``GMRES_FIRST_STATES`` states, ILU-GMRES
first from there on; an explicit method list is honoured at any size."""

import math

import numpy as np
import pytest

from repro.choreographer import PepaWorkbench
from repro.ctmc import build_ctmc, steady_state
from repro.obs import ObsContext, Tracer, use_obs
from repro.pepa.export import model_source
from repro.pepa.measures import analyse
from repro.resilience.fallback import (
    GMRES_FIRST_STATES,
    FallbackPolicy,
    solve_with_fallback,
)
from repro.workloads import client_server_model


def birth_death_states(n_states: int):
    """A birth-death chain of exactly ``n_states`` states."""
    transitions = []
    for i in range(n_states - 1):
        transitions.append((i, "arrive", 0.9, i + 1))
        transitions.append((i + 1, "serve", 1.0, i))
    return build_ctmc(n_states, transitions)


class TestMethodsFor:
    def test_small_chains_start_with_direct(self):
        policy = FallbackPolicy()
        assert policy.methods_for(GMRES_FIRST_STATES - 1) == ("direct", "gmres", "jacobi")

    def test_large_chains_start_with_gmres(self):
        policy = FallbackPolicy()
        assert policy.methods_for(GMRES_FIRST_STATES) == ("gmres", "direct", "jacobi")

    def test_explicit_methods_ignore_size(self):
        policy = FallbackPolicy.of("direct")
        assert policy.methods_for(10 * GMRES_FIRST_STATES) == ("direct",)

    def test_default_policy_is_the_none_spec(self):
        assert FallbackPolicy.of(None) == FallbackPolicy()
        assert FallbackPolicy().methods is None


class TestSwitch:
    def test_below_the_constant_direct_wins(self):
        _, diag = solve_with_fallback(birth_death_states(GMRES_FIRST_STATES - 1))
        assert diag.method == "direct"
        assert [a.method for a in diag.attempts] == ["direct"]

    def test_at_the_constant_gmres_wins(self):
        chain = birth_death_states(GMRES_FIRST_STATES)
        pi, diag = solve_with_fallback(chain)
        assert diag.method == "gmres"
        assert np.allclose(pi, steady_state(chain, "direct"), atol=1e-10, rtol=0.0)

    def test_explicit_direct_runs_direct_above_the_constant(self):
        _, diag = solve_with_fallback(birth_death_states(GMRES_FIRST_STATES), "direct")
        assert diag.method == "direct"
        assert [a.method for a in diag.attempts] == ["direct"]

    def test_size_is_taken_after_the_bottom_scc_restriction(self):
        # A transient path of GMRES_FIRST_STATES states drains into a
        # two-state bottom component: the chain solved has two states.
        n = GMRES_FIRST_STATES + 2
        transitions = [(i, "drain", 1.0, i + 1) for i in range(n - 2)]
        transitions += [(n - 2, "up", 1.0, n - 1), (n - 1, "down", 3.0, n - 2)]
        chain = build_ctmc(n, transitions)
        tracer = Tracer()
        with use_obs(ObsContext(tracer=tracer)):
            pi, diag = solve_with_fallback(chain, reducible="bscc")
        assert diag.method == "direct"
        assert np.allclose(pi[-2:], [0.75, 0.25])
        [span] = tracer.roots
        assert span.attributes["methods"] == "direct,gmres,jacobi"
        assert span.attributes["states"] == n

    def test_span_names_the_size_ordered_chain(self):
        tracer = Tracer()
        with use_obs(ObsContext(tracer=tracer)):
            solve_with_fallback(birth_death_states(GMRES_FIRST_STATES))
        [span] = tracer.roots
        assert span.attributes["methods"] == "gmres,direct,jacobi"
        assert span.attributes["solved_by"] == "gmres"

    def test_one_state_chain_credits_direct(self):
        _, diag = solve_with_fallback(build_ctmc(1, []))
        assert diag.method == "direct"


class TestClientServerNine:
    """``client_server_model(9)``: 2,816 states, above the constant."""

    @pytest.fixture(scope="class")
    def analyses(self):
        model = client_server_model(9)
        return analyse(model), analyse(model, solver="direct")

    def test_default_is_gmres_and_matches_direct(self, analyses):
        default, direct = analyses
        assert default.n_states == 2816 >= GMRES_FIRST_STATES
        assert default.diagnostics.method == default.solver == "gmres"
        assert direct.diagnostics.method == "direct"
        assert np.allclose(default.pi, direct.pi, atol=1e-10, rtol=0.0)

    def test_cycle_throughputs_agree(self, analyses):
        # Every client cycle is think -> request -> response.
        tp = analyses[0].all_throughputs()
        assert math.isclose(tp["think"], tp["request"], rel_tol=1e-9)
        assert math.isclose(tp["request"], tp["response"], rel_tol=1e-9)

    def test_workbench_default_takes_the_same_path(self):
        analysis = PepaWorkbench().solve_source(model_source(client_server_model(9)))
        assert analysis.solver == "gmres"
