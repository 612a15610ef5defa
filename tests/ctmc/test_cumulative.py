"""Unit tests for cumulative rewards and sensitivity analysis."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from repro.ctmc import build_ctmc, steady_state
from repro.ctmc.cumulative import accumulated_reward, reward_to_absorption, time_average_reward
from repro.ctmc.sensitivity import measure_sensitivity, stationary_derivative
from repro.exceptions import SolverError


def two_state(a=1.0, b=3.0):
    return build_ctmc(2, [(0, "down", a, 1), (1, "up", b, 0)])


class TestAccumulatedReward:
    def test_zero_horizon(self):
        chain = two_state()
        assert accumulated_reward(chain, 0.0, np.array([1.0, 0.0]), 0) == 0.0

    def test_constant_reward_accumulates_linearly(self):
        chain = two_state()
        r = np.array([2.0, 2.0])
        for t in (0.5, 1.0, 3.0):
            assert math.isclose(accumulated_reward(chain, t, r, 0), 2.0 * t, rel_tol=1e-9)

    def test_two_state_closed_form(self):
        """E[time in state 0 over [0,t] | start 0] has a closed form:
        (b/(a+b)) t + (a/(a+b)^2)(1 - e^{-(a+b)t})."""
        a, b = 1.0, 3.0
        chain = two_state(a, b)
        r = np.array([1.0, 0.0])
        s = a + b
        for t in (0.2, 1.0, 4.0):
            expected = (b / s) * t + (a / s**2) * (1 - math.exp(-s * t))
            assert math.isclose(accumulated_reward(chain, t, r, 0), expected, rel_tol=1e-8)

    def test_time_average_converges_to_steady_state(self):
        chain = two_state()
        r = np.array([1.0, 0.0])
        pi = steady_state(chain)
        avg = time_average_reward(chain, 200.0, r, 0)
        assert math.isclose(avg, pi[0], abs_tol=1e-3)

    def test_negative_time_rejected(self):
        with pytest.raises(SolverError):
            accumulated_reward(two_state(), -1.0, np.array([1.0, 0.0]), 0)

    def test_bad_reward_shape_rejected(self):
        with pytest.raises(SolverError):
            accumulated_reward(two_state(), 1.0, np.ones(5), 0)


class TestRewardToAbsorption:
    def test_unit_reward_is_mean_passage_time(self):
        from repro.ctmc import mean_passage_time

        chain = build_ctmc(3, [(0, "a", 2.0, 1), (1, "b", 2.0, 2), (2, "c", 2.0, 0)])
        r = np.ones(3)
        value = reward_to_absorption(chain, [2], r, source=0)
        assert math.isclose(value, mean_passage_time(chain, 0, [2]), rel_tol=1e-12)

    def test_weighted_energy_example(self):
        """Two stages with power draws 5 and 1: expected energy to
        absorption = 5·E[stage1] + 1·E[stage2]."""
        chain = build_ctmc(3, [(0, "x", 2.0, 1), (1, "y", 4.0, 2)])
        power = np.array([5.0, 1.0, 0.0])
        value = reward_to_absorption(chain, [2], power, source=0)
        assert math.isclose(value, 5.0 / 2.0 + 1.0 / 4.0, rel_tol=1e-12)

    def test_source_in_targets(self):
        chain = two_state()
        assert reward_to_absorption(chain, [0], np.ones(2), source=0) == 0.0

    def test_full_vector(self):
        chain = build_ctmc(3, [(0, "x", 1.0, 1), (1, "y", 1.0, 2)])
        vec = reward_to_absorption(chain, [2], np.ones(3))
        assert np.allclose(vec, [2.0, 1.0])

    def test_empty_targets_rejected(self):
        with pytest.raises(SolverError):
            reward_to_absorption(two_state(), [], np.ones(2))

    def test_unreachable_target_is_a_singular_system(self):
        chain = build_ctmc(3, [(0, "a", 1.0, 1), (1, "b", 2.0, 0), (2, "c", 1.0, 0)])
        with pytest.raises(SolverError, match="singular"):
            reward_to_absorption(chain, [2], np.ones(3), source=0)


class TestSensitivity:
    def test_two_state_analytic_derivative(self):
        """pi_0 = b/(a+b): d pi_0 / da = -b/(a+b)^2."""
        a, b = 1.0, 3.0
        chain = two_state(a, b)
        # direction: increase a (the 0->1 rate) by 1
        dQ = sp.csr_matrix(np.array([[-1.0, 1.0], [0.0, 0.0]]))
        dpi = stationary_derivative(chain, dQ)
        expected = -b / (a + b) ** 2
        assert math.isclose(dpi[0], expected, rel_tol=1e-9)
        assert math.isclose(dpi.sum(), 0.0, abs_tol=1e-12)

    def test_finite_difference_cross_check(self):
        a, b, h = 1.0, 3.0, 1e-6
        dQ = sp.csr_matrix(np.array([[-1.0, 1.0], [0.0, 0.0]]))
        dpi = stationary_derivative(two_state(a, b), dQ)
        pi_hi = steady_state(two_state(a + h, b))
        pi_lo = steady_state(two_state(a - h, b))
        fd = (pi_hi - pi_lo) / (2 * h)
        assert np.allclose(dpi, fd, atol=1e-5)

    def test_measure_sensitivity_with_reward_term(self):
        """throughput(down) = pi_0 * a; d/da = pi_0 + a * dpi_0/da."""
        a, b = 1.0, 3.0
        chain = two_state(a, b)
        pi = steady_state(chain)
        dQ = sp.csr_matrix(np.array([[-1.0, 1.0], [0.0, 0.0]]))
        rewards = chain.action_rates["down"]
        d_rewards = np.array([1.0, 0.0])  # d(a * 1_{s=0})/da
        value = measure_sensitivity(chain, dQ, rewards, d_rewards, pi)
        analytic = b / (a + b) + a * (-b / (a + b) ** 2)
        assert math.isclose(value, analytic, rel_tol=1e-9)

    def test_nonzero_row_sum_rejected(self):
        chain = two_state()
        bad = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(SolverError, match="row sums"):
            stationary_derivative(chain, bad)

    def test_shape_mismatch_rejected(self):
        chain = two_state()
        with pytest.raises(SolverError, match="shape"):
            stationary_derivative(chain, sp.csr_matrix((3, 3)))


class TestPepaSensitivity:
    def test_profile_and_finite_difference(self):
        from repro.pepa import parse_model
        from repro.pepa.ctmcgen import ctmc_of_model
        from repro.pepa.sensitivity import sensitivity_profile, throughput_sensitivity

        def model(r_work):
            return parse_model(
                f"Busy = (work, {r_work}).Idle; Idle = (rest, 2.0).Busy; Busy"
            )

        space, chain = ctmc_of_model(model(1.0))
        sens = throughput_sensitivity(space, chain, "work", "work")
        # finite difference on throughput(work) w.r.t. scaling work rates
        h = 1e-6
        from repro.ctmc import throughput

        def tp(scale):
            s, c = ctmc_of_model(model(1.0 * scale))
            return throughput(c, "work")

        fd = (tp(1 + h) - tp(1 - h)) / (2 * h)
        assert math.isclose(sens, fd, rel_tol=1e-4)

        profile = sensitivity_profile(space, chain, "work")
        assert set(profile) == {"work", "rest"}
        # both rates raise the cycle frequency: positive sensitivities
        assert all(v > 0 for v in profile.values())

    def test_unknown_actions_rejected(self):
        from repro.pepa import parse_model
        from repro.pepa.ctmcgen import ctmc_of_model
        from repro.pepa.sensitivity import throughput_sensitivity

        space, chain = ctmc_of_model(parse_model("P = (a, 1).P; P"))
        with pytest.raises(SolverError):
            throughput_sensitivity(space, chain, "ghost", "a")
        with pytest.raises(SolverError):
            throughput_sensitivity(space, chain, "a", "ghost")
