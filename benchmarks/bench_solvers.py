"""A1a — solver ablation.

"Exact solution is an advantage, susceptibility to state-space
explosion a disadvantage" — this bench quantifies the trade-off on a
scaled client/server family: every steady-state method of the Workbench
menu is timed on the same chain and checked against the direct solver.

Run as a script, it prints the direct-vs-gmres crossover sweep that
picked :data:`repro.resilience.fallback.GMRES_FIRST_STATES`, the size
from which the default chain tries ``gmres`` before ``direct``::

    OMP_NUM_THREADS=1 PYTHONPATH=src python benchmarks/bench_solvers.py
"""

import statistics
import time

import numpy as np
import pytest

from conftest import record

from repro.ctmc.steady import steady_state
from repro.pepa.ctmcgen import ctmc_of_model
from repro.pepanets.measures import ctmc_of_net
from repro.resilience.fallback import solve_with_fallback
from repro.workloads import client_server_model, courier_ring_net, tandem_queue_model

#: 8 clients -> 512 client configurations x 2 server phases.
N_CLIENTS = 8

#: A paper-scale instance, where derivation rather than solving dominates.
SMALL_N_CLIENTS = 5

_chain_cache: dict[int, object] = {}


def chain_for(n: int):
    if n not in _chain_cache:
        _, chain = ctmc_of_model(client_server_model(n))
        _chain_cache[n] = chain
    return _chain_cache[n]


@pytest.mark.parametrize("method", ["direct", "gmres", "jacobi"])
def test_solver_on_large_instance(benchmark, method):
    chain = chain_for(N_CLIENTS)
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


# ----------------------------------------------------------------------
# The crossover sweep (script entry point)
# ----------------------------------------------------------------------
#: family -> (chain builder, parameters bracketing the crossover)
SWEEP = {
    "client_server": (lambda n: ctmc_of_model(client_server_model(n))[1], (7, 8, 9, 10)),
    "tandem_queue": (lambda c: ctmc_of_model(tandem_queue_model(3, c))[1],
                     (11, 12, 13, 14, 15, 16)),
    "courier_ring_3": (lambda p: ctmc_of_net(courier_ring_net(p, 3))[1],
                       (6, 7, 8, 9, 10)),
    # Two couriers fill the LU factors far less: direct stays ahead.
    "courier_ring_2": (lambda p: ctmc_of_net(courier_ring_net(p, 2))[1], (30, 38, 46)),
}


def _median_ms(chain, repeats: int) -> tuple[float, float, str]:
    """Median ``direct`` and ``gmres`` solve times in ms, the two
    methods alternating so that drift on a shared host hits both, and
    the ``gmres`` preconditioner path and certificate status."""
    times: dict[str, list[float]] = {"direct": [], "gmres": []}
    for _ in range(repeats):
        for method, samples in times.items():
            start = time.perf_counter()
            _, diag = solve_with_fallback(chain, method)
            samples.append(time.perf_counter() - start)
    path = f"{diag.attempts[0].preconditioner}, {diag.certificate}"
    return (1000.0 * statistics.median(times["direct"]),
            1000.0 * statistics.median(times["gmres"]), path)


def crossover_sweep(repeats: int = 3) -> list[tuple[str, int, float, float, str]]:
    """``(family, states, direct ms, gmres ms, gmres path)`` per swept
    chain, each time the median of ``repeats`` solves in this process;
    the ``gmres`` time includes its spectral-gap certificate."""
    rows = []
    for family, (build, params) in SWEEP.items():
        for param in params:
            chain = build(param)
            rows.append((family, chain.n_states, *_median_ms(chain, repeats)))
    return rows


if __name__ == "__main__":
    from repro.resilience.fallback import GMRES_FIRST_STATES

    print(f"{'family':<14} {'states':>7} {'direct ms':>10} {'gmres ms':>9}  faster  gmres path")
    for family, states, direct_ms, gmres_ms, path in crossover_sweep():
        winner = "direct" if direct_ms <= gmres_ms else "gmres"
        print(f"{family:<14} {states:>7} {direct_ms:>10.1f} {gmres_ms:>9.1f}  {winner:<6}  {path}")
    print(f"default chain: gmres first from {GMRES_FIRST_STATES} states")
