"""Cross-solver consistency on seeded random ergodic CTMCs.

Every steady-state method in the registry — and the resilient fallback
chain on top of them — must agree on the same stationary distribution.
The chains are built from a seeded RNG: a directed Hamiltonian cycle
guarantees irreducibility (hence ergodicity, as the state space is
finite), then extra random transitions vary the structure.  The direct
sparse-LU solution is the reference; each other method must match it
componentwise within ``1e-8`` and sum to one.

The slow iterative methods (power iteration and the stationary
splittings) only see small chains; the Krylov methods get larger ones.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctmc import CTMC, build_ctmc, steady_state
from repro.ctmc.steady import SOLVERS
from repro.resilience.fallback import FallbackPolicy, solve_with_fallback

AGREEMENT_ATOL = 1e-8

#: methods safe at any size vs methods that need small, well-mixed chains
FAST_METHODS = sorted(set(SOLVERS) & {"direct", "gmres", "bicgstab"})
SLOW_METHODS = sorted(set(SOLVERS) - set(FAST_METHODS))


def random_ergodic_ctmc(n: int, seed: int, extra_density: float = 0.4) -> CTMC:
    """A seeded random irreducible CTMC on ``n`` states.

    The cycle ``0 -> 1 -> ... -> n-1 -> 0`` makes every state reachable
    from every other; extra uniformly-drawn transitions (density
    ``extra_density`` over the off-diagonal pairs) randomise the
    structure.  Rates live in ``[0.1, 10]`` so the generator stays
    well-conditioned for every iterative family.
    """
    rng = np.random.default_rng(seed)
    transitions = [
        (i, "cycle", float(rng.uniform(0.1, 10.0)), (i + 1) % n) for i in range(n)
    ]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < extra_density:
                transitions.append((i, "hop", float(rng.uniform(0.1, 10.0)), j))
    return build_ctmc(n, transitions, labels=[f"s{i}" for i in range(n)])


def reference_pi(chain: CTMC) -> np.ndarray:
    return steady_state(chain, "direct")


def assert_consistent(pi: np.ndarray, reference: np.ndarray) -> None:
    assert pi.shape == reference.shape
    assert np.all(pi >= 0.0)
    assert abs(pi.sum() - 1.0) < 1e-10
    assert np.allclose(pi, reference, atol=AGREEMENT_ATOL, rtol=0.0)


class TestSeededAgreement:
    """Fixed seeds: fully deterministic, run on every pytest invocation."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("method", FAST_METHODS)
    def test_fast_methods_medium_chains(self, method, seed):
        chain = random_ergodic_ctmc(25, seed)
        assert_consistent(steady_state(chain, method), reference_pi(chain))

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("method", SLOW_METHODS)
    def test_slow_methods_small_chains(self, method, seed):
        chain = random_ergodic_ctmc(8, seed)
        assert_consistent(steady_state(chain, method), reference_pi(chain))

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_fallback_chain_agrees(self, seed):
        chain = random_ergodic_ctmc(25, seed)
        pi, diag = solve_with_fallback(chain, FallbackPolicy())
        assert diag.succeeded
        assert_consistent(pi, reference_pi(chain))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fallback_starting_from_iterative_method_agrees(self, seed):
        # The chain may succeed on gmres or fall through to direct;
        # either way the answer must be the same distribution.
        chain = random_ergodic_ctmc(12, seed)
        policy = FallbackPolicy(methods=("gmres", "direct"))
        pi, diag = solve_with_fallback(chain, policy)
        assert diag.succeeded
        assert diag.method in {"gmres", "direct"}
        assert_consistent(pi, reference_pi(chain))


class TestPropertyAgreement:
    """Hypothesis sweeps over sizes and seeds."""

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=3, max_value=20),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_krylov_methods_match_direct(self, n, seed):
        chain = random_ergodic_ctmc(n, seed)
        reference = reference_pi(chain)
        for method in ("gmres", "bicgstab"):
            assert_consistent(steady_state(chain, method), reference)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(min_value=3, max_value=8),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_slow_methods_match_direct(self, n, seed):
        chain = random_ergodic_ctmc(n, seed)
        reference = reference_pi(chain)
        for method in SLOW_METHODS:
            assert_consistent(steady_state(chain, method), reference)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(min_value=3, max_value=15),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_fallback_matches_direct(self, n, seed):
        chain = random_ergodic_ctmc(n, seed)
        pi, diag = solve_with_fallback(chain, FallbackPolicy())
        assert diag.succeeded
        assert_consistent(pi, reference_pi(chain))

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(min_value=3, max_value=12),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           density=st.floats(min_value=0.0, max_value=1.0))
    def test_distribution_is_stationary(self, n, seed, density):
        # Not just solver-vs-solver: the answer must satisfy pi Q = 0.
        chain = random_ergodic_ctmc(n, seed, extra_density=density)
        pi = reference_pi(chain)
        residual = np.abs(chain.Q.transpose() @ pi).max()
        assert residual < 1e-9


def test_registry_is_covered():
    """Every registered method is exercised by this module."""
    assert set(FAST_METHODS) | set(SLOW_METHODS) == set(SOLVERS)
