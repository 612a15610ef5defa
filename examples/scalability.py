"""Taming state-space explosion: the three tools this library ships.

The paper names "susceptibility to state-space explosion" as the price
of exact numerical solution.  This example measures the explosion on a
growing client/server system and then applies, in turn:

1. **population (counting) semantics** — exact aggregation of identical
   replicas (polynomial states instead of exponential);
2. **ordinary lumping** — exact aggregation of arbitrary symmetric
   structure;
3. **solver choice** — iterative methods when direct factorisation gets
   heavy.

Run:  python examples/scalability.py
"""

import time

from repro.ctmc import lump, steady_state, throughput
from repro.pepa import parse_expression, parse_model, population_ctmc
from repro.pepa.ctmcgen import ctmc_of_model
from repro.workloads import client_server_model, symmetric_branches_model

# ----------------------------------------------------------------------
# 1. The explosion, and the population cure
# ----------------------------------------------------------------------
print("=" * 68)
print("1. n clients sharing one server: unfolded vs population states")
print("=" * 68)
DEFS = parse_model(
    """
    Think = (think, 1.0).Ready;
    Ready = (request, 2.0).Wait;
    Wait  = (response, T).Think;
    Idle  = (request, T).Serve;
    Serve = (response, 5.0).Idle;
    Idle
    """
).environment

print(f"{'n':>4} {'unfolded':>10} {'population':>11} {'request/s':>10}")
for n in (4, 8, 10, 100):
    if n <= 10:
        space, chain = ctmc_of_model(client_server_model(n))
        unfolded = str(space.size)
        tp_unfolded = throughput(chain, "request")
    else:
        unfolded = f"~2^{n - 1}x{n + 2}"
        tp_unfolded = None
    states, pop_chain = population_ctmc(
        DEFS, "Think", n, parse_expression("Idle"), {"request", "response"}
    )
    tp = throughput(pop_chain, "request")
    if tp_unfolded is not None:
        assert abs(tp - tp_unfolded) < 1e-9, "population semantics must be exact"
    print(f"{n:>4} {unfolded:>10} {len(states):>11} {tp:>10.4f}")
print("(population throughput verified exact against the unfolded model)")

# ----------------------------------------------------------------------
# 2. Ordinary lumping on symmetric structure
# ----------------------------------------------------------------------
print()
print("=" * 68)
print("2. lumping a hub with n interchangeable branches")
print("=" * 68)
for n in (16, 256):
    _, chain = ctmc_of_model(symmetric_branches_model(n))
    lumped = lump(chain)
    pi = steady_state(lumped.chain)
    print(f"  n={n}: {chain.n_states} states -> {lumped.n_blocks} blocks; "
          f"P(hub) = {pi[lumped.block_of[chain.initial]]:.4f} "
          f"(exact: {3 / (3 + n):.4f})")

# ----------------------------------------------------------------------
# 3. Solver choice on the biggest unfolded instance
# ----------------------------------------------------------------------
print()
print("=" * 68)
print("3. solver timings on the unfolded 9-client chain")
print("=" * 68)
_, chain = ctmc_of_model(client_server_model(9))
print(f"chain: {chain.n_states} states")
reference = steady_state(chain, "direct")
for method in ("direct", "gmres", "jacobi"):
    start = time.perf_counter()
    pi = steady_state(chain, method)
    elapsed = time.perf_counter() - start
    error = abs(pi - reference).max()
    print(f"  {method:>9}: {elapsed * 1000:7.1f} ms   max|Δπ| = {error:.2e}")
