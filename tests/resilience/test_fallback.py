"""Tests for the fallback-chain steady-state solver."""

import time

import numpy as np
import pytest

from repro.ctmc import build_ctmc, steady_state
from repro.exceptions import SolverError
from repro.obs import EventStream, ObsContext, Tracer, use_obs
from repro.resilience import (
    FallbackPolicy,
    FaultSpec,
    SolveDiagnostics,
    inject_fault,
    solve_with_fallback,
)
from tests.ctmc.test_solver_consistency import rate_spread_ctmc


def birth_death(n: int, birth: float, death: float):
    transitions = []
    for i in range(n):
        transitions.append((i, "arrive", birth, i + 1))
        transitions.append((i + 1, "serve", death, i))
    return build_ctmc(n + 1, transitions, labels=[f"q{i}" for i in range(n + 1)])


@pytest.fixture
def chain():
    return birth_death(8, birth=1.0, death=2.0)


class TestPolicy:
    def test_parse_comma_list(self):
        policy = FallbackPolicy.parse("direct, gmres ,jacobi")
        assert policy.methods == ("direct", "gmres", "jacobi")

    def test_parse_rejects_empty_spec(self):
        with pytest.raises(SolverError, match="empty"):
            FallbackPolicy.parse(" , ")

    def test_unknown_method_fails_fast(self, chain):
        with pytest.raises(SolverError, match="unknown steady-state method"):
            solve_with_fallback(chain, FallbackPolicy(methods=("quantum",)))


class TestFallbackChain:
    def test_happy_path_uses_first_method(self, chain):
        pi, diag = solve_with_fallback(chain)
        assert diag.method == "direct"
        assert len(diag.attempts) == 1
        assert diag.attempts[0].ok
        assert diag.succeeded

    def test_fallback_matches_unfaulted_answer(self, chain):
        """Acceptance: direct forced to fail, the chain still returns
        the correct distribution, and the diagnostics list both the
        failed and the successful attempt."""
        expected = steady_state(chain, "direct")
        with inject_fault("direct", FaultSpec(kind="converge")):
            pi, diag = solve_with_fallback(chain)
        assert np.allclose(pi, expected, atol=1e-8)
        assert diag.method == "gmres"
        outcomes = [(a.method, a.outcome) for a in diag.attempts]
        assert ("direct", "failed") in outcomes
        assert ("gmres", "converged") in outcomes

    def test_steady_state_fallback_method(self, chain):
        expected = steady_state(chain, "direct")
        with inject_fault("direct", FaultSpec(kind="converge")):
            pi = steady_state(chain, "direct,gmres,jacobi")
        assert np.allclose(pi, expected, atol=1e-8)

    def test_steady_state_policy_string(self, chain):
        pi = steady_state(chain, "jacobi,direct")
        assert np.allclose(pi, steady_state(chain, "direct"), atol=1e-6)

    def test_nan_fault_is_caught_by_normalisation(self, chain):
        expected = steady_state(chain, "direct")
        with inject_fault("direct", FaultSpec(kind="nan")):
            pi, diag = solve_with_fallback(chain)
        assert np.allclose(pi, expected, atol=1e-8)
        assert diag.attempts[0].outcome == "failed"
        assert "non-finite" in diag.attempts[0].detail

    def test_transient_exception_fault_moves_on(self, chain):
        with inject_fault("direct", FaultSpec(kind="exception", message="disk on fire")):
            pi, diag = solve_with_fallback(chain)
        assert diag.attempts[0].outcome == "error"
        assert "disk on fire" in diag.attempts[0].detail
        assert diag.succeeded

    def test_each_method_runs_once_without_sleeping(self, chain, monkeypatch):
        """A failed method is not retried: the chain moves straight on,
        and nothing sleeps between methods."""
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        policy = FallbackPolicy(methods=("gmres", "direct"))
        with inject_fault("gmres", FaultSpec.first_n("converge", 50)) as injector:
            pi, diag = solve_with_fallback(chain, policy)
        assert [(a.method, a.outcome) for a in diag.attempts] == [
            ("gmres", "failed"), ("direct", "converged")]
        assert injector.calls == 1
        assert sleeps == []
        assert np.allclose(pi, steady_state(chain, "direct"), atol=1e-8)

    def test_failure_message_names_each_method_once(self, chain):
        """A method that fails runs once and is named once, without an
        attempt index."""
        stream = EventStream()
        policy = FallbackPolicy(methods=("jacobi",), max_iterations=2)
        with use_obs(ObsContext(events=stream)):
            with pytest.raises(SolverError, match=r"failed: jacobi: failed \(jacobi did not"):
                solve_with_fallback(chain, policy)
        first_sweeps = [e for e in stream.by_name("solver.convergence")
                        if e.fields["iteration"] == 1]
        assert len(first_sweeps) == 1

    def test_jacobi_is_the_last_resort_on_a_wide_rate_spread(self):
        """Rates over six decades, direct and gmres both down: the
        default chain's last resort still returns the direct answer."""
        spread = rate_spread_ctmc(300, seed=0)
        expected = steady_state(spread, "direct")
        policy = FallbackPolicy(max_iterations=5_000)
        with inject_fault("direct", FaultSpec.first_n("converge", 50)), \
                inject_fault("gmres", FaultSpec.first_n("converge", 50)):
            pi, diag = solve_with_fallback(spread, policy)
        assert diag.method == "jacobi"
        assert [a.outcome for a in diag.attempts] == ["failed", "failed", "converged"]
        assert np.allclose(pi, expected, atol=1e-8, rtol=0.0)

    def test_all_methods_failing_raises_with_diagnostics(self, chain):
        policy = FallbackPolicy(methods=("direct",))
        with inject_fault("direct", FaultSpec(kind="converge")):
            with pytest.raises(SolverError, match="fallback method"):
                try:
                    solve_with_fallback(chain, policy)
                except SolverError as exc:
                    assert isinstance(exc.diagnostics, SolveDiagnostics)
                    assert not exc.diagnostics.succeeded
                    assert exc.context["stage"] == "solve"
                    raise

    def test_deadline_exhaustion_raises(self, chain):
        policy = FallbackPolicy(deadline=0.0)
        with pytest.raises(SolverError, match="deadline"):
            solve_with_fallback(chain, policy)

    def test_bad_residual_rejected(self, chain):
        """A solver that converges to the wrong vector must be caught
        by the ‖πQ‖∞ sanity check, not returned."""

        def liar(chain, tol, max_iterations, info=None):
            return np.full(chain.n_states, 1.0 / chain.n_states)

        registry = {"liar": liar, "direct": __import__(
            "repro.ctmc.steady", fromlist=["SOLVERS"]).SOLVERS["direct"]}
        policy = FallbackPolicy(methods=("liar", "direct"))
        pi, diag = solve_with_fallback(chain, policy, solvers=registry)
        assert diag.attempts[0].outcome == "bad-residual"
        assert diag.method == "direct"
        assert np.allclose(pi, steady_state(chain, "direct"), atol=1e-8)


class TestReducibleChains:
    def test_bscc_embedding(self):
        # 0 -> 1 <-> 2 : transient start-up, recurrent {1, 2}
        chain = build_ctmc(
            3, [(0, "s", 1.0, 1), (1, "a", 1.0, 2), (2, "b", 3.0, 1)]
        )
        pi, diag = solve_with_fallback(chain, reducible="bscc")
        assert pi[0] == 0.0
        assert np.isclose(pi.sum(), 1.0)
        expected = steady_state(chain, "direct", reducible="bscc")
        assert np.allclose(pi, expected, atol=1e-8)

    def test_bscc_structure_found_once_inside_the_solve_span(self, monkeypatch):
        import repro.ctmc.chain as chain_mod

        tracer = Tracer()
        calls = []
        real = chain_mod.connected_components

        def counting(*args, **kwargs):
            calls.append(tracer.stack_names())
            return real(*args, **kwargs)

        monkeypatch.setattr(chain_mod, "connected_components", counting)
        chain = build_ctmc(
            3, [(0, "s", 1.0, 1), (1, "a", 1.0, 2), (2, "b", 3.0, 1)]
        )
        with use_obs(ObsContext(tracer=tracer)):
            _, diag = solve_with_fallback(chain, reducible="bscc")
        assert calls == [["ctmc.solve"]]
        [root] = tracer.roots
        assert root.name == "ctmc.solve"
        assert root.attributes["states"] == diag.n_states == 3
        assert {c.name for c in root.children} == {"solve.attempt"}

    def test_reducible_error_policy(self):
        chain = build_ctmc(3, [(0, "a", 1.0, 1), (1, "b", 1.0, 2)])
        with pytest.raises(SolverError, match="irreducible"):
            solve_with_fallback(chain)


class TestDiagnostics:
    def test_table_and_summary_render(self, chain):
        with inject_fault("direct", FaultSpec(kind="converge")):
            _, diag = solve_with_fallback(chain)
        table = diag.as_table()
        assert "direct" in table and "gmres" in table
        assert "failed" in table and "converged" in table
        assert "solved by gmres" in diag.summary()

    def test_single_state_chain_is_trivial(self):
        chain = build_ctmc(1, [(0, "tick", 1.0, 0)])
        # π = [1] needs no solver (jacobi could not even run on it); the
        # record credits the policy's first method.
        for spec, first in ((None, "direct"), ("jacobi,direct", "jacobi")):
            pi, diag = solve_with_fallback(chain, spec)
            assert pi.tolist() == [1.0]
            assert diag.method == first
            assert [a.detail for a in diag.attempts] == ["one state"]


class TestPreconditionerDiagnostics:
    def test_krylov_attempt_records_gs_path(self, chain):
        pi, diag = solve_with_fallback(chain, FallbackPolicy(methods=("gmres",)))
        assert diag.succeeded
        assert diag.attempts[0].preconditioner == "gs"

    def test_non_krylov_attempts_leave_field_empty(self, chain):
        pi, diag = solve_with_fallback(chain, FallbackPolicy(methods=("direct",)))
        assert diag.attempts[0].preconditioner == ""
