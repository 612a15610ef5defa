"""Unit tests for passage-time measures."""

import math

import numpy as np
import pytest

from repro.ctmc import (
    build_ctmc,
    mean_passage_time,
    mean_time_per_visit,
    passage_time_cdf,
    steady_state,
    visit_frequency,
)
from repro.exceptions import SolverError


def three_cycle(r=2.0):
    return build_ctmc(3, [(0, "a", r, 1), (1, "b", r, 2), (2, "c", r, 0)],
                      labels=["A", "B", "C"])


class TestMeanPassage:
    def test_single_exponential_step(self):
        chain = build_ctmc(2, [(0, "go", 4.0, 1), (1, "back", 1.0, 0)])
        assert math.isclose(mean_passage_time(chain, 0, [1]), 0.25, rel_tol=1e-12)

    def test_chain_of_stages_sums_means(self):
        chain = three_cycle(r=2.0)
        # A -> B -> C: two exponential stages of mean 1/2 each
        assert math.isclose(mean_passage_time(chain, 0, [2]), 1.0, rel_tol=1e-12)

    def test_source_in_targets_is_zero(self):
        assert mean_passage_time(three_cycle(), 1, [1, 2]) == 0.0

    def test_empty_targets_rejected(self):
        with pytest.raises(SolverError):
            mean_passage_time(three_cycle(), 0, [])

    def test_unreachable_target_is_a_singular_system(self):
        # {0, 1} is closed: state 2 is never reached from 0.
        chain = build_ctmc(3, [(0, "a", 1.0, 1), (1, "b", 2.0, 0), (2, "c", 1.0, 0)])
        with pytest.raises(SolverError, match="singular"):
            mean_passage_time(chain, 0, [2])

    def test_out_of_range_target_rejected(self):
        with pytest.raises(SolverError):
            mean_passage_time(three_cycle(), 0, [99])

    def test_race_of_two_exits(self):
        chain = build_ctmc(
            3, [(0, "l", 1.0, 1), (0, "r", 3.0, 2), (1, "x", 1.0, 0), (2, "y", 1.0, 0)]
        )
        # time to reach {1, 2} is one exponential race at total rate 4
        assert math.isclose(mean_passage_time(chain, 0, [1, 2]), 0.25, rel_tol=1e-12)


class TestCdf:
    def test_single_step_cdf_is_exponential(self):
        chain = build_ctmc(2, [(0, "go", 2.0, 1), (1, "back", 1.0, 0)])
        times = np.array([0.1, 0.5, 1.0, 2.0])
        cdf = passage_time_cdf(chain, 0, [1], times)
        expected = 1.0 - np.exp(-2.0 * times)
        assert np.allclose(cdf, expected, atol=1e-8)

    def test_cdf_monotone(self):
        chain = three_cycle()
        times = np.linspace(0.05, 3.0, 12)
        cdf = passage_time_cdf(chain, 0, [2], times)
        assert np.all(np.diff(cdf) >= -1e-12)

    def test_source_in_targets_gives_ones(self):
        cdf = passage_time_cdf(three_cycle(), 2, [2], np.array([0.0, 1.0]))
        assert np.allclose(cdf, 1.0)

    def test_unsorted_times_are_handled(self):
        chain = build_ctmc(2, [(0, "go", 2.0, 1), (1, "back", 1.0, 0)])
        ordered = passage_time_cdf(chain, 0, [1], np.array([0.5, 1.0]))
        shuffled = passage_time_cdf(chain, 0, [1], np.array([1.0, 0.5]))
        assert math.isclose(shuffled[0], ordered[1], abs_tol=1e-10)
        assert math.isclose(shuffled[1], ordered[0], abs_tol=1e-10)


class TestRenewalMeasures:
    def test_visit_frequency_equals_entry_throughput(self):
        chain = three_cycle(r=2.0)
        pi = steady_state(chain)
        # each state is entered at the cycle frequency: rate 2 per state,
        # pi uniform 1/3 -> flux into B is pi(A)*2 = 2/3
        assert math.isclose(visit_frequency(chain, [1], pi), 2 / 3, rel_tol=1e-9)

    def test_mean_time_per_visit_is_sojourn(self):
        chain = three_cycle(r=2.0)
        # exponential sojourn with rate 2 -> mean 1/2
        assert math.isclose(mean_time_per_visit(chain, [1]), 0.5, rel_tol=1e-9)

    def test_block_of_states(self):
        chain = three_cycle(r=2.0)
        # entering {B, C} and traversing both stages: mean 1
        assert math.isclose(mean_time_per_visit(chain, [1, 2]), 1.0, rel_tol=1e-9)

    def test_never_entered_set_rejected(self):
        chain = build_ctmc(2, [(0, "go", 1.0, 1), (1, "back", 1.0, 0)])
        no_mass_outside = np.array([0.0, 1.0])  # all mass already inside {1}
        with pytest.raises(SolverError):
            mean_time_per_visit(chain, [1], no_mass_outside)
