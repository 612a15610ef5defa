"""Continuous-Time Markov Chain analysis (paper substrate S2).

The numerical back end of the reproduction: sparse generators, a menu
of steady-state solvers, uniformization-based transient analysis,
passage times, exact lumping and explicit-state export formats.
"""

from repro.ctmc.chain import CTMC, assemble_ctmc, build_ctmc
from repro.ctmc.cumulative import accumulated_reward, reward_to_absorption, time_average_reward
from repro.ctmc.sensitivity import measure_sensitivity, stationary_derivative
from repro.ctmc.dtmc import ctmc_pi_from_embedded, dtmc_stationary, embedded_dtmc
from repro.ctmc.export import to_dot, to_matrix_market, to_prism, write_prism_files
from repro.ctmc.lumping import LumpedChain, coarsest_lumping, lump
from repro.ctmc.passage import (
    mean_passage_time,
    mean_time_per_visit,
    passage_time_cdf,
    visit_frequency,
)
from repro.ctmc.rewards import (
    all_throughputs,
    expectation,
    mean_population,
    probability_by_label,
    throughput,
    utilisation,
)
from repro.ctmc.serialize import ctmc_from_payload, ctmc_to_payload
from repro.ctmc.steady import SOLVERS, steady_state
from repro.ctmc.transient import expected_rewards_at, transient_curve, transient_distribution

__all__ = [
    "CTMC",
    "assemble_ctmc",
    "build_ctmc",
    "steady_state",
    "SOLVERS",
    "transient_distribution",
    "transient_curve",
    "expected_rewards_at",
    "throughput",
    "all_throughputs",
    "expectation",
    "utilisation",
    "probability_by_label",
    "mean_population",
    "mean_passage_time",
    "passage_time_cdf",
    "mean_time_per_visit",
    "visit_frequency",
    "lump",
    "coarsest_lumping",
    "LumpedChain",
    "embedded_dtmc",
    "dtmc_stationary",
    "ctmc_pi_from_embedded",
    "to_prism",
    "write_prism_files",
    "to_matrix_market",
    "to_dot",
    "accumulated_reward",
    "reward_to_absorption",
    "time_average_reward",
    "stationary_derivative",
    "measure_sensitivity",
    "ctmc_to_payload",
    "ctmc_from_payload",
]
