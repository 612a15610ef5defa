"""Unit tests for passage-time densities, quantiles and moments."""

import math

import numpy as np
import pytest

from repro.ctmc import build_ctmc, mean_passage_time
from repro.ctmc.density import (
    passage_time_density,
    passage_time_moments,
    passage_time_quantile,
)
from repro.exceptions import SolverError


def single_step(rate=2.0):
    return build_ctmc(2, [(0, "go", rate, 1), (1, "back", 1.0, 0)])


def erlang_chain(stages=3, rate=2.0):
    transitions = [(i, "s", rate, i + 1) for i in range(stages)]
    transitions.append((stages, "loop", 1.0, 0))
    return build_ctmc(stages + 1, transitions)


class TestDensity:
    def test_exponential_density(self):
        chain = single_step(2.0)
        times = np.array([0.0, 0.25, 1.0, 2.0])
        density = passage_time_density(chain, 0, [1], times)
        expected = 2.0 * np.exp(-2.0 * times)
        assert np.allclose(density, expected, atol=1e-8)

    def test_density_integrates_to_cdf(self):
        """Trapezoidal integral of f matches the CDF."""
        from repro.ctmc import passage_time_cdf

        chain = erlang_chain(3, 2.0)
        times = np.linspace(0, 6, 600)
        density = passage_time_density(chain, 0, [3], times)
        integral = np.trapezoid(density, times)
        cdf_end = passage_time_cdf(chain, 0, [3], np.array([times[-1]]))[0]
        assert math.isclose(integral, cdf_end, abs_tol=1e-3)

    def test_source_in_targets_gives_zero_density(self):
        chain = single_step()
        density = passage_time_density(chain, 1, [1], np.array([0.5]))
        assert density[0] == 0.0

    def test_erlang_mode_location(self):
        """Erlang(k, λ) density peaks at (k-1)/λ."""
        chain = erlang_chain(3, 2.0)
        times = np.linspace(0.05, 4.0, 400)
        density = passage_time_density(chain, 0, [3], times)
        peak_t = times[np.argmax(density)]
        assert math.isclose(peak_t, 2 / 2.0, abs_tol=0.05)


class TestQuantile:
    def test_exponential_median(self):
        chain = single_step(2.0)
        median = passage_time_quantile(chain, 0, [1], 0.5)
        assert math.isclose(median, math.log(2) / 2.0, rel_tol=1e-4)

    def test_quantiles_monotone(self):
        chain = erlang_chain(3, 2.0)
        q50 = passage_time_quantile(chain, 0, [3], 0.5)
        q95 = passage_time_quantile(chain, 0, [3], 0.95)
        assert q50 < q95

    def test_source_in_targets(self):
        assert passage_time_quantile(single_step(), 1, [1], 0.9) == 0.0

    def test_bad_probability_rejected(self):
        with pytest.raises(SolverError):
            passage_time_quantile(single_step(), 0, [1], 1.5)


class TestMoments:
    def test_exponential_moments(self):
        chain = single_step(2.0)
        m1, m2 = passage_time_moments(chain, 0, [1], 2)
        assert math.isclose(m1, 0.5, rel_tol=1e-12)
        assert math.isclose(m2, 2 / 4.0, rel_tol=1e-12)  # E[T^2] = 2/λ²

    def test_erlang_moments(self):
        """Erlang(3, 2): mean 1.5, variance 3/4."""
        chain = erlang_chain(3, 2.0)
        m1, m2 = passage_time_moments(chain, 0, [3], 2)
        assert math.isclose(m1, 1.5, rel_tol=1e-12)
        variance = m2 - m1**2
        assert math.isclose(variance, 0.75, rel_tol=1e-12)

    def test_first_moment_matches_mean_passage_time(self):
        chain = erlang_chain(4, 1.5)
        [m1] = passage_time_moments(chain, 0, [4], 1)
        assert math.isclose(m1, mean_passage_time(chain, 0, [4]), rel_tol=1e-12)

    def test_source_in_targets(self):
        assert passage_time_moments(single_step(), 1, [1], 3) == [0.0, 0.0, 0.0]

    def test_zero_moments_rejected(self):
        with pytest.raises(SolverError):
            passage_time_moments(single_step(), 0, [1], 0)

    def test_unreachable_target_is_a_singular_system(self):
        chain = build_ctmc(3, [(0, "a", 1.0, 1), (1, "b", 2.0, 0), (2, "c", 1.0, 0)])
        with pytest.raises(SolverError, match="singular"):
            passage_time_moments(chain, 0, [2], 2)
