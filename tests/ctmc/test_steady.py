"""Unit and property tests for the steady-state solvers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctmc import CTMC, build_ctmc, steady_state
from repro.ctmc.steady import SOLVERS, _balance_system, sparse_lu
from repro.exceptions import SolverError
from repro.obs import ObsContext, Tracer, use_obs
from repro.pepa.ctmcgen import ctmc_of_model
from repro.pepa.measures import analyse
from repro.pepa.parser import parse_model
from repro.resilience.fallback import FallbackPolicy, solve_with_fallback
from repro.workloads import tandem_queue_model
from tests.ctmc.test_solver_consistency import rate_spread_ctmc

ALL_METHODS = sorted(SOLVERS)


def birth_death(n: int, birth: float, death: float) -> CTMC:
    """M/M/1/n queue: closed-form geometric stationary distribution."""
    transitions = []
    for i in range(n):
        transitions.append((i, "arrive", birth, i + 1))
        transitions.append((i + 1, "serve", death, i))
    return build_ctmc(n + 1, transitions, labels=[f"q{i}" for i in range(n + 1)])


def geometric_pi(n: int, rho: float) -> np.ndarray:
    weights = rho ** np.arange(n + 1)
    return weights / weights.sum()


class TestAnalyticAgreement:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_two_state(self, method):
        chain = build_ctmc(2, [(0, "d", 1.0, 1), (1, "u", 3.0, 0)])
        pi = steady_state(chain, method)
        assert np.allclose(pi, [0.75, 0.25], atol=1e-7)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_birth_death_geometric(self, method):
        chain = birth_death(8, birth=1.0, death=2.0)
        pi = steady_state(chain, method)
        assert np.allclose(pi, geometric_pi(8, 0.5), atol=1e-6)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_uniform_cycle(self, method):
        n = 6
        chain = build_ctmc(n, [(i, "step", 2.0, (i + 1) % n) for i in range(n)])
        pi = steady_state(chain, method)
        assert np.allclose(pi, np.full(n, 1 / n), atol=1e-6)


class TestValidation:
    def test_unknown_method(self):
        chain = birth_death(2, 1.0, 1.0)
        with pytest.raises(SolverError, match="unknown"):
            steady_state(chain, "quantum")

    def test_reducible_chain_rejected(self):
        chain = build_ctmc(3, [(0, "a", 1.0, 1), (1, "b", 1.0, 2)])
        with pytest.raises(SolverError, match="irreducible"):
            steady_state(chain)

    def test_reducible_error_names_absorbing_state(self):
        chain = build_ctmc(2, [(0, "a", 1.0, 1)], labels=["start", "sink"])
        with pytest.raises(SolverError, match="sink"):
            steady_state(chain)

    def test_check_can_be_skipped_for_known_irreducible(self):
        chain = birth_death(3, 1.0, 1.0)
        pi = steady_state(chain, check_irreducible=False)
        assert math.isclose(pi.sum(), 1.0)

    def test_single_state(self):
        chain = CTMC(build_ctmc(2, [(0, "a", 1.0, 1), (1, "b", 1.0, 0)]).Q[:1, :1].tocsr() * 0)
        pi = steady_state(chain)
        assert pi.tolist() == [1.0]

    def test_empty_chain_rejected(self):
        import scipy.sparse as sp

        with pytest.raises(SolverError):
            steady_state(CTMC(sp.csr_matrix((0, 0))))


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_ergodic_chain_balance(self, n, seed):
        """On random irreducible chains the direct solver satisfies
        global balance and agrees with the jacobi iteration."""
        rng = np.random.default_rng(seed)
        transitions = []
        # Ring to guarantee irreducibility, plus random extra edges.
        for i in range(n):
            transitions.append((i, "ring", float(rng.uniform(0.5, 2.0)), (i + 1) % n))
        for _ in range(n):
            i, j = rng.integers(0, n, size=2)
            if i != j:
                transitions.append((int(i), "extra", float(rng.uniform(0.1, 3.0)), int(j)))
        chain = build_ctmc(n, transitions)
        pi = steady_state(chain, "direct")
        assert math.isclose(pi.sum(), 1.0, rel_tol=1e-9)
        # global balance: pi Q = 0
        residual = np.abs(pi @ chain.Q.toarray()).max()
        assert residual < 1e-8
        pi_jacobi = steady_state(chain, "jacobi", tol=1e-13)
        assert np.allclose(pi, pi_jacobi, atol=1e-6)


class TestValidationOrdering:
    """The method name must be validated before the (potentially
    expensive) irreducibility analysis — a typo fails in O(1)."""

    def test_unknown_method_beats_reducibility_check(self):
        chain = build_ctmc(3, [(0, "a", 1.0, 1), (1, "b", 1.0, 2)])  # reducible
        with pytest.raises(SolverError, match="unknown steady-state method"):
            steady_state(chain, "quantum")

    def test_unknown_method_skips_scc_analysis(self):
        chain = birth_death(4, 1.0, 1.0)
        calls = []
        original = chain.bottom_sccs
        chain.bottom_sccs = lambda: calls.append(1) or original()
        with pytest.raises(SolverError, match="unknown"):
            steady_state(chain, "tpyo")
        assert calls == []
        steady_state(chain, "direct")
        assert calls == [1]  # a valid method runs the one SCC pass


class TestBsccPolicy:
    def test_multiple_bottom_sccs_rejected(self):
        # 1 -> 0 and 1 -> 2 with both {0} and {2} absorbing: the steady
        # state depends on the initial state, so "bscc" must refuse.
        chain = build_ctmc(
            3, [(1, "left", 1.0, 0), (1, "right", 1.0, 2),
                (0, "spin", 1.0, 0), (2, "spin", 1.0, 2)]
        )
        with pytest.raises(SolverError, match="2 bottom strongly connected"):
            steady_state(chain, reducible="bscc")

    def test_two_recurrent_classes_rejected(self):
        # two disjoint 2-cycles reachable from a common start
        chain = build_ctmc(
            5,
            [(0, "l", 1.0, 1), (0, "r", 1.0, 3),
             (1, "a", 1.0, 2), (2, "b", 1.0, 1),
             (3, "c", 1.0, 4), (4, "d", 1.0, 3)],
        )
        with pytest.raises(SolverError, match="depends on the initial state"):
            steady_state(chain, reducible="bscc")

    def test_unique_bscc_masses_transients_to_zero(self):
        chain = build_ctmc(
            3, [(0, "s", 1.0, 1), (1, "a", 1.0, 2), (2, "b", 3.0, 1)]
        )
        pi = steady_state(chain, reducible="bscc")
        assert pi[0] == 0.0
        assert np.allclose(pi[1:], [0.75, 0.25], atol=1e-9)

    def test_unknown_reducible_policy_rejected(self):
        chain = birth_death(2, 1.0, 1.0)
        with pytest.raises(SolverError, match="reducible policy"):
            steady_state(chain, reducible="maybe")


class TestNormalisationRejections:
    """Solvers returning garbage must be rejected — by _normalise or by
    the residual check — never silently renormalised into a
    plausible-looking answer."""

    def _with_fake_solver(self, vector_fn, chain=None):
        def fake(chain, tol, max_iterations, info=None):
            return vector_fn(chain.n_states)

        SOLVERS["_fake"] = fake
        try:
            chain = birth_death(3, 1.0, 2.0) if chain is None else chain
            return steady_state(chain, "_fake")
        finally:
            del SOLVERS["_fake"]

    def test_nan_vector_rejected(self):
        with pytest.raises(SolverError, match="non-finite"):
            self._with_fake_solver(lambda n: np.full(n, np.nan))

    def test_inf_vector_rejected(self):
        with pytest.raises(SolverError, match="non-finite"):
            self._with_fake_solver(lambda n: np.full(n, np.inf))

    def test_materially_negative_vector_rejected(self):
        def negative(n):
            v = np.full(n, 1.0 / n)
            v[0] = -0.5
            return v

        with pytest.raises(SolverError, match="negative"):
            self._with_fake_solver(negative)

    def test_zero_vector_rejected(self):
        with pytest.raises(SolverError, match="zero vector"):
            self._with_fake_solver(np.zeros)

    @pytest.mark.parametrize("chain", [
        birth_death(3, 1.0, 2.0),
        birth_death(3, 1e-7, 2e-7),
    ], ids=["unit-rates", "slow-rates"])
    def test_wrong_normalised_vector_rejected_by_residual(self, chain):
        """A finite, non-negative, normalised but wrong vector passes
        _normalise; the always-on residual check must still refuse it.
        The bound scales with the exit rates, so a slow chain's tiny
        absolute residual is no free pass."""
        with pytest.raises(SolverError, match="bad-residual") as info:
            self._with_fake_solver(lambda n: np.full(n, 1.0 / n), chain)
        [attempt] = info.value.diagnostics.attempts
        assert attempt.outcome == "bad-residual"
        assert attempt.residual > FallbackPolicy().residual_tol * chain.max_exit_rate()

    def test_tiny_negative_roundoff_clipped(self):
        # π ∝ 1e-6^i: the last state's true mass (1e-18) is below
        # round-off, so a -1e-12 there is an accurate answer.
        def roundoff(n):
            v = geometric_pi(n - 1, 1e-6)
            v[-1] = -1e-12  # direct-solve round-off territory
            return v

        pi = self._with_fake_solver(roundoff, birth_death(3, 1.0, 1e6))
        assert pi.min() >= 0.0
        assert math.isclose(pi.sum(), 1.0)


class TestDefaultDiagnostics:
    def test_analyse_defaults_carry_one_direct_attempt(self):
        model = parse_model("P = (work, 1.0).Q;\nQ = (rest, 2.0).P;\nP")
        analysis = analyse(model)
        diag = analysis.diagnostics
        assert analysis.solver == diag.method == "direct"
        [attempt] = diag.attempts
        assert (attempt.method, attempt.outcome) == ("direct", "converged")
        bound = FallbackPolicy().residual_tol * analysis.chain.max_exit_rate()
        assert attempt.residual < bound

    def test_exit_rate_spread_is_recorded(self):
        # exit rates 1e-7, 3e-7, 3e-7, 2e-7: the spread is 3 whatever
        # the time unit, and the ctmc.solve span carries it too
        tracer = Tracer()
        with use_obs(ObsContext(tracer=tracer)):
            _, diag = solve_with_fallback(birth_death(3, 1e-7, 2e-7))
        assert diag.exit_rate_spread == pytest.approx(3.0)
        [span] = tracer.roots
        assert span.attributes["exit_rate_spread"] == pytest.approx(3.0)

    def test_one_state_chain_has_no_spread(self):
        _, diag = solve_with_fallback(build_ctmc(1, []))
        assert diag.exit_rate_spread is None

    def test_slow_chain_direct_answer_passes_the_scaled_bound(self):
        # the bound is residual_tol × max exit rate with no floor of 1:
        # a correct answer on a chain of rate 1e-7 must still clear it
        model = parse_model("P = (work, 1e-7).Q;\nQ = (rest, 2e-7).P;\nP")
        analysis = analyse(model)
        [attempt] = analysis.diagnostics.attempts
        assert attempt.outcome == "converged"
        assert attempt.residual < 1e-6 * 2e-7


def break_gauss_seidel(monkeypatch):
    """Make the Gauss–Seidel factorisation fail, so ``gmres`` moves on
    to its ILU preconditioner."""
    import repro.ctmc.steady as steady_mod

    def singular_splu(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(steady_mod.spla, "splu", singular_splu)


class TestPreconditionerFallback:
    def test_spilu_valueerror_falls_back_to_unpreconditioned(self, monkeypatch):
        """spilu can raise ValueError/MemoryError on near-singular or
        huge systems; the Krylov solvers must drop to M=None, not crash."""
        import repro.ctmc.steady as steady_mod

        def broken_spilu(*args, **kwargs):
            raise ValueError("near-singular factorisation")

        break_gauss_seidel(monkeypatch)
        monkeypatch.setattr(steady_mod.spla, "spilu", broken_spilu)
        chain = birth_death(6, 1.0, 2.0)
        pi = steady_state(chain, "gmres")
        assert np.allclose(pi, geometric_pi(6, 0.5), atol=1e-6)

    def test_spilu_memoryerror_falls_back(self, monkeypatch):
        import repro.ctmc.steady as steady_mod

        def huge_spilu(*args, **kwargs):
            raise MemoryError("fill-in blew up")

        break_gauss_seidel(monkeypatch)
        monkeypatch.setattr(steady_mod.spla, "spilu", huge_spilu)
        chain = birth_death(6, 1.0, 2.0)
        pi = steady_state(chain, "gmres")
        assert np.allclose(pi, geometric_pi(6, 0.5), atol=1e-6)


class TestPreconditionerReporting:
    """Krylov attempts must report which preconditioner path ran —
    Gauss–Seidel by default, then ILU, then none when a factorisation
    fails — in the attempt record of the diagnostics."""

    def test_materialised_chain_reports_gs(self):
        chain = birth_death(6, 1.0, 2.0)
        _, diag = solve_with_fallback(chain, "gmres")
        assert diag.attempts[0].preconditioner == "gs"

    def test_broken_gauss_seidel_reports_ilu(self, monkeypatch):
        break_gauss_seidel(monkeypatch)
        chain = birth_death(6, 1.0, 2.0)
        pi, diag = solve_with_fallback(chain, "gmres")
        assert diag.attempts[0].preconditioner == "gs→ilu"
        assert np.allclose(pi, geometric_pi(6, 0.5), atol=1e-6)

    def test_broken_spilu_reports_none_fallback(self, monkeypatch):
        import repro.ctmc.steady as steady_mod

        def broken_spilu(*args, **kwargs):
            raise ValueError("near-singular factorisation")

        break_gauss_seidel(monkeypatch)
        monkeypatch.setattr(steady_mod.spla, "spilu", broken_spilu)
        chain = birth_death(6, 1.0, 2.0)
        _, diag = solve_with_fallback(chain, "gmres")
        assert diag.attempts[0].preconditioner == "gs→ilu→none"


class TestSparseLu:
    """Every direct solve factorises through ``sparse_lu``: minimum
    degree on ``Aᵀ + A`` in symmetric mode, threshold pivoting at 0.1."""

    def test_minimum_degree_ordering_keeps_the_factors_sparse(self):
        # 2,197 states: 23.3 × nnz(A) under this ordering, 67.1 under
        # SuperLU's default COLAMD.
        _, chain = ctmc_of_model(tandem_queue_model(3, 12))
        A, _ = _balance_system(chain)
        lu = sparse_lu(A)
        assert lu.L.nnz + lu.U.nnz <= 30 * A.nnz

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_twelve_decades_agree_with_dense_partial_pivoting(self, seed):
        # GMRES stalls on these chains (see TestTwelveDecades in the
        # certificate tests), so the reference is LAPACK's dense LU of
        # the same balance system.
        chain = rate_spread_ctmc(300, seed, decades=12)
        A, b = _balance_system(chain)
        dense = np.linalg.solve(A.toarray(), b)
        dense /= dense.sum()
        assert np.abs(steady_state(chain, "direct") - dense).sum() <= 1e-12

    def test_reducible_chain_is_a_failed_direct_attempt(self):
        # Two closed classes: the balance system is exactly singular.
        chain = build_ctmc(4, [(0, "a", 1.0, 1), (1, "b", 2.0, 0),
                               (2, "c", 1.0, 3), (3, "d", 3.0, 2)])
        with pytest.raises(SolverError) as caught:
            solve_with_fallback(chain, "direct", check_irreducible=False)
        [attempt] = caught.value.diagnostics.attempts
        assert (attempt.method, attempt.outcome) == ("direct", "failed")
        assert "singular" in attempt.detail
