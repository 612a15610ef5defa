"""Tests for the fluid ODE / steady-state analyzer."""

import math
import time

import numpy as np
import pytest

from repro.batch.cache import DerivationCache, use_cache
from repro.ctmc import steady_state
from repro.exceptions import SolverError
from repro.fluid import analyse_fluid, nvf_of_model, steady_fluid, trajectory
from repro.fluid.crossval import (
    client_server_family,
    file_sink_model,
    roaming_sessions_model,
)
from repro.obs import EventStream, ObsContext, use_obs
from repro.pepa.population import population_ctmc


class TestExactness:
    """Linear families: fluid equals the exact population CTMC at any N."""

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_file_sink_matches_population_ctmc(self, n):
        model = file_sink_model(n)
        analysis = analyse_fluid(model)
        from repro.fluid import population_shape

        shape = population_shape(model)
        states, chain = population_ctmc(
            model.environment, shape.replica, n, shape.environment,
            shape.cooperation,
        )
        pi = steady_state(chain)
        for name in ("Reader", "Writer"):
            exact = sum(p * s.count_of(name) for p, s in zip(pi, states))
            assert analysis.occupancy(name) == pytest.approx(exact, abs=1e-8)

    def test_throughputs_balance_around_the_cycle(self):
        analysis = analyse_fluid(roaming_sessions_model(4))
        assert analysis.throughput("download") == pytest.approx(
            analysis.throughput("handover"), rel=1e-9
        )
        # πSession = r_h/(r_d + r_h) per replica; throughput = N·r_d·π
        assert analysis.throughput("download") == pytest.approx(4 / 3, rel=1e-9)


class TestScaling:
    def test_replicas_override_scales_masses(self):
        analysis = analyse_fluid(roaming_sessions_model(2), replicas=10**6)
        assert analysis.replicas == 10**6
        total = sum(analysis.occupancies().values())
        assert total == pytest.approx(1e6, rel=1e-9)

    def test_solve_time_independent_of_replica_count(self):
        model = client_server_family(2)

        def solve(n):
            nvf, _, _ = nvf_of_model(model, replicas=n)
            t0 = time.perf_counter()
            steady_fluid(nvf, n)
            return time.perf_counter() - t0

        solve(10)  # warm-up
        small, large = solve(10**3), solve(10**9)
        # generous: catches O(N) regressions, ignores scheduler noise
        assert large < 50 * small + 1.0


class TestAccessors:
    def test_occupancy_and_probability(self):
        analysis = analyse_fluid(client_server_family(1), replicas=100)
        # replica coordinates: probability is occupancy / N
        assert analysis.probability_of_local_state("Think") == pytest.approx(
            analysis.occupancy("Think") / 100
        )
        # environment coordinates are already probabilities
        assert analysis.probability_of_local_state("Idle") == pytest.approx(
            analysis.occupancy("Idle")
        )
        assert analysis.occupancy("Idle") + analysis.occupancy("Serve") == \
            pytest.approx(1.0, abs=1e-8)

    def test_unknown_local_state_is_solver_error(self):
        analysis = analyse_fluid(roaming_sessions_model(2))
        with pytest.raises(SolverError, match="Ghost"):
            analysis.occupancy("Ghost")

    def test_diagnostics_record_the_converged_method(self):
        analysis = analyse_fluid(file_sink_model(3))
        assert analysis.solver in ("newton", "ode", "damped")
        assert analysis.diagnostics is not None
        assert analysis.diagnostics.method == analysis.solver


class TestMethods:
    @pytest.mark.parametrize("method", ["newton", "ode", "damped"])
    def test_each_method_alone_converges(self, method):
        nvf, _, n = nvf_of_model(roaming_sessions_model(3))
        x, diag = steady_fluid(nvf, n, methods=(method,))
        assert diag.method == method
        assert np.abs(nvf.vector_field(x)).max() < 1e-6

    def test_unknown_method_rejected(self):
        nvf, _, n = nvf_of_model(roaming_sessions_model(2))
        with pytest.raises(SolverError, match="unknown"):
            steady_fluid(nvf, n, methods=("simplex",))

    def test_methods_accept_comma_string(self):
        nvf, _, n = nvf_of_model(roaming_sessions_model(2))
        _, diag = steady_fluid(nvf, n, methods="ode,damped")
        assert diag.method == "ode"


class TestTrajectory:
    def test_transient_approaches_steady_state(self):
        nvf, _, n = nvf_of_model(client_server_family(5))
        times, xs = trajectory(nvf, n, t_end=60.0, n_points=50)
        assert times[0] == 0.0 and xs.shape == (50, nvf.dimension)
        x_star, _ = steady_fluid(nvf, n)
        assert np.abs(xs[-1] - x_star).max() < 1e-4

    def test_mass_conserved_along_the_way(self):
        nvf, _, _ = nvf_of_model(roaming_sessions_model(2))
        _, xs = trajectory(nvf, 50, t_end=10.0, n_points=20)
        assert np.allclose(xs.sum(axis=1), 50.0, atol=1e-6)


class TestCachingAndEvents:
    def test_cache_roundtrip_skips_recompute(self, tmp_path):
        model = file_sink_model(2)
        with use_cache(DerivationCache(tmp_path)):
            first = analyse_fluid(model, replicas=500)
            assert first.cache_key is not None
            assert first.nvf is not None  # computed fresh
            second = analyse_fluid(model, replicas=500)
        assert second.nvf is None  # rebuilt from the cached payload
        assert second.cache_key == first.cache_key
        np.testing.assert_allclose(second.x, first.x)
        assert second.all_throughputs() == first.all_throughputs()
        assert second.solver == first.solver

    def test_cache_key_distinguishes_replica_counts(self, tmp_path):
        model = file_sink_model(2)
        with use_cache(DerivationCache(tmp_path)):
            a = analyse_fluid(model, replicas=10)
            b = analyse_fluid(model, replicas=20)
        assert a.cache_key != b.cache_key
        assert not math.isclose(a.occupancy("Reader"), b.occupancy("Reader"))

    def test_cache_key_distinguishes_solver_settings(self, tmp_path):
        """A non-default method chain or residual bound is its own
        entry; a default call keeps the key a default call always had."""
        model = file_sink_model(2)
        with use_cache(DerivationCache(tmp_path)):
            default = analyse_fluid(model, replicas=50)
            damped = analyse_fluid(model, replicas=50, methods=("damped",),
                                   residual_tol=1e-3)
            spelled_out = analyse_fluid(model, replicas=50,
                                        methods="newton,ode,damped",
                                        residual_tol=1e-10)
        assert default.solver == "newton"
        assert damped.solver == "damped"
        assert damped.nvf is not None  # solved, not served from the cache
        assert damped.cache_key != default.cache_key
        assert spelled_out.cache_key == default.cache_key
        assert default.cache_key.params == (("replicas", 50),)

    def test_fluid_step_events_emitted(self):
        nvf, _, _ = nvf_of_model(client_server_family(2))
        events = EventStream()
        with use_obs(ObsContext(events=events)):
            trajectory(nvf, 1000, t_end=500.0, n_points=400)
        steps = events.by_name("fluid.step")
        assert steps, "expected sampled fluid.step events"
        assert all("dx_inf" in e.fields and "nfev" in e.fields for e in steps)
