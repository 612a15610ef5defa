"""A1a — solver ablation.

"Exact solution is an advantage, susceptibility to state-space
explosion a disadvantage" — this bench quantifies the trade-off on a
scaled client/server family: every steady-state method of the Workbench
menu is timed on the same chain and checked against the direct solver.
"""

import numpy as np
import pytest

from conftest import record

from repro.ctmc.steady import steady_state
from repro.pepa.ctmcgen import ctmc_of_model
from repro.workloads import client_server_model

#: 8 clients -> 512 client configurations x 2 server phases.
N_CLIENTS = 8

# Stationary per-state sweeps in Python are orders slower; keep them on
# a smaller instance so the bench suite stays laptop-scale.
SMALL_N_CLIENTS = 5

_chain_cache: dict[int, object] = {}


def chain_for(n: int):
    if n not in _chain_cache:
        _, chain = ctmc_of_model(client_server_model(n))
        _chain_cache[n] = chain
    return _chain_cache[n]


@pytest.mark.parametrize("method", ["direct", "gmres", "bicgstab", "power"])
def test_solver_on_large_instance(benchmark, method):
    chain = chain_for(N_CLIENTS)
    pi = benchmark(lambda: steady_state(chain, method, tol=1e-10))
    reference = steady_state(chain, "direct")
    assert np.allclose(pi, reference, atol=1e-6)
    record(benchmark, states=chain.n_states)


@pytest.mark.parametrize("method", ["jacobi"])
def test_stationary_iterations_small_instance(benchmark, method):
    chain = chain_for(SMALL_N_CLIENTS)
    pi = benchmark(lambda: steady_state(chain, method, tol=1e-10))
    reference = steady_state(chain, "direct")
    assert np.allclose(pi, reference, atol=1e-6)
    record(benchmark, states=chain.n_states)


def test_derivation_dominates_small_models(benchmark):
    """For paper-scale models the state-space derivation, not the linear
    solve, is the cost centre — worth knowing before optimising."""
    def derive_and_solve():
        space, chain = ctmc_of_model(client_server_model(SMALL_N_CLIENTS))
        return steady_state(chain)

    pi = benchmark(derive_and_solve)
    assert abs(pi.sum() - 1.0) < 1e-9
