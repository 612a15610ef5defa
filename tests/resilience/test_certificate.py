"""The spectral-gap certificate and the hard chains it exists for.

A small residual ``‖πQ‖`` does not make a steady state right: on a
chain that mixes slowly the error can be the residual divided by a gap
near zero.  Every ``gmres`` and ``jacobi`` answer is therefore
certified with the bound ``(‖πQ‖₁/Λ)/gap``; an answer whose bound
exceeds the policy's ``residual_tol`` is ``"uncertified"`` and moves
the chain on.  The battery below keeps the chains that fool the
residual check: two halves joined by arcs of rate 1e-8 (near-reducible)
and rates over twelve decades.
"""

import time

import numpy as np
import pytest

from repro.ctmc import build_ctmc, steady_state
from repro.ctmc.steady import error_bound
from repro.exceptions import SolverError
from repro.obs import EventStream, MetricsRegistry, ObsContext, Tracer, use_obs
from repro.pepa.measures import analyse
from repro.resilience.fallback import GMRES_FIRST_STATES, solve_with_fallback
from repro.workloads import client_server_model
from tests.ctmc.test_solver_consistency import rate_spread_ctmc


def near_reducible_ctmc(n: int, seed: int, bridge: float = 1e-8):
    """Two random halves, each a ring plus three random arcs per state
    with rates in ``[1, 10]``, joined by one arc of rate ``bridge`` each
    way."""
    rng = np.random.default_rng(seed)
    half = n // 2
    transitions = []
    for lo, hi in ((0, half), (half, n)):
        m = hi - lo
        for k in range(m):
            transitions.append((lo + k, "ring", float(10.0 ** rng.uniform()), lo + (k + 1) % m))
        for k in range(m):
            for j in rng.choice(m - 1, size=3, replace=False):
                transitions.append((lo + k, "hop", float(10.0 ** rng.uniform()),
                                    lo + int(j) + int(j >= k)))
    transitions += [(0, "bridge", bridge, half), (half, "bridge", bridge, 0)]
    return build_ctmc(n, transitions)


@pytest.fixture(scope="module")
def near_reducible():
    """Large enough for the default chain to try ``gmres`` first."""
    return near_reducible_ctmc(GMRES_FIRST_STATES, seed=0)


class TestNearReducible:
    def test_default_chain_hands_the_fooled_answer_to_direct(self, near_reducible):
        tracer = Tracer()
        with use_obs(ObsContext(tracer=tracer)):
            pi, diag = solve_with_fallback(near_reducible)
        assert [(a.method, a.outcome) for a in diag.attempts] == [
            ("gmres", "uncertified"), ("direct", "converged")]
        assert np.allclose(pi, steady_state(near_reducible, "direct"),
                           atol=1e-10, rtol=0.0)
        rejected = diag.attempts[0]
        assert rejected.certificate == "uncertified"
        assert rejected.gap < 1e-9
        assert rejected.error_bound > 1e-6
        # the residual check alone would have accepted a wrong answer
        assert diag.uncertified_l1 > 1e-3
        [span] = tracer.roots
        assert span.attributes["solved_by"] == "direct"
        assert span.attributes["uncertified_l1"] == diag.uncertified_l1
        assert "certificate" not in span.attributes
        gmres_span = span.children[0]
        assert gmres_span.attributes["outcome"] == "uncertified"
        assert gmres_span.attributes["gap"] == rejected.gap
        assert gmres_span.attributes["error_bound"] == rejected.error_bound

    @pytest.mark.parametrize("method", ["gmres", "jacobi"])
    def test_an_explicit_iterative_method_raises(self, near_reducible, method):
        with pytest.raises(SolverError, match="uncertified"):
            steady_state(near_reducible, method)


class TestTwelveDecades:
    def test_gmres_hands_a_stalled_gauss_seidel_to_ilu(self):
        chain = rate_spread_ctmc(1000, seed=2, decades=12)
        pi, diag = solve_with_fallback(chain, "gmres")
        assert diag.attempts[0].preconditioner == "gs→ilu"
        assert np.allclose(pi, steady_state(chain, "direct"), atol=1e-10, rtol=0.0)

    def test_a_stalled_gmres_gives_up_quickly(self):
        # Each preconditioner stops at its first restart cycle that does
        # not halve the residual, instead of running out the 200,000
        # inner iterations of the default budget.
        metrics = MetricsRegistry()
        start = time.perf_counter()
        with use_obs(ObsContext(Tracer(), metrics, EventStream())):
            with pytest.raises(SolverError, match="gmres failed to converge"):
                steady_state(rate_spread_ctmc(300, seed=1, decades=12), "gmres")
        assert time.perf_counter() - start < 5.0
        assert 0 < metrics.counter("solver_iterations").value < 2_000


class TestCertifiedAnswers:
    def test_client_server_nine_is_certified_under_gauss_seidel(self):
        diag = analyse(client_server_model(9)).diagnostics
        assert diag.method == "gmres"
        assert diag.attempts[0].preconditioner == "gs"
        assert diag.certificate == "certified"
        assert diag.error_bound <= 1e-10
        assert 0.0 < diag.gap < 1.0
        assert "preconditioner gs, certified" in diag.summary()

    @pytest.mark.parametrize("method", ["gmres", "jacobi"])
    def test_periodic_two_state_chain_is_certified(self, method):
        # Λ = 2 × max exit rate keeps the eigenvalue −1 of the plain
        # uniformised flip-flop away from the unit circle.
        chain = build_ctmc(2, [(0, "a", 1.0, 1), (1, "b", 1.0, 0)])
        pi, diag = solve_with_fallback(chain, method)
        assert np.allclose(pi, [0.5, 0.5])
        assert diag.certificate == "certified"
        assert diag.gap == pytest.approx(1.0)

    def test_unconverged_gap_estimate_is_unknown_and_accepted(self):
        # ARPACK does not converge on this six-decade spread within its
        # fixed restart cap; the answer stands on its residual alone.
        chain = rate_spread_ctmc(300, seed=0)
        pi, diag = solve_with_fallback(chain, "gmres")
        assert diag.certificate == "unknown"
        assert diag.gap is None and diag.error_bound is None
        assert "certificate unknown" in diag.summary()
        assert np.allclose(pi, steady_state(chain, "direct"), atol=1e-8, rtol=0.0)

    def test_direct_answers_carry_no_certificate(self):
        chain = near_reducible_ctmc(40, seed=1)
        tracer = Tracer()
        with use_obs(ObsContext(tracer=tracer)):
            _, diag = solve_with_fallback(chain)
        assert diag.method == "direct"
        assert diag.certificate == "" and diag.gap is None
        [span] = tracer.roots
        assert not {"certificate", "gap", "error_bound"} & set(span.attributes)

    def test_error_bound_of_the_exact_answer_is_tiny(self):
        chain = rate_spread_ctmc(50, seed=3, decades=1)
        gap, bound = error_bound(chain, steady_state(chain, "direct"))
        assert 0.0 < gap < 1.0
        assert bound < 1e-12


class TestOneStateSpan:
    def test_one_state_bottom_component_span_names_the_winner(self):
        chain = build_ctmc(3, [(0, "a", 1.0, 1), (1, "b", 1.0, 2)])
        tracer = Tracer()
        with use_obs(ObsContext(tracer=tracer)):
            pi, diag = solve_with_fallback(chain, reducible="bscc")
        assert pi.tolist() == [0.0, 0.0, 1.0]
        [span] = tracer.roots
        assert span.attributes["solved_by"] == diag.method == "direct"
        assert span.attributes["attempts"] == 1
        assert span.attributes["residual"] == 0.0
