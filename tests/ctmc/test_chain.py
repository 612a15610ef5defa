"""Unit tests for the CTMC container."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.ctmc import CTMC, build_ctmc
from repro.exceptions import SolverError


def bottom_sccs_by_loop(chain):
    """Reference: bottom SCCs found by visiting every generator arc."""
    n_comp, labels = connected_components(chain.Q, directed=True, connection="strong")
    coo = chain.Q.tocoo()
    leaves = set(range(n_comp))
    for i, j, v in zip(coo.row, coo.col, coo.data):
        if v > 0 and labels[i] != labels[j]:
            leaves.discard(int(labels[i]))
    return [np.flatnonzero(labels == c) for c in sorted(leaves)]


def two_state():
    return build_ctmc(2, [(0, "down", 1.0, 1), (1, "up", 3.0, 0)], labels=["On", "Off"])


class TestBuild:
    def test_generator_rows_sum_to_zero(self):
        c = two_state()
        sums = np.asarray(c.Q.sum(axis=1)).ravel()
        assert np.allclose(sums, 0.0)

    def test_parallel_transitions_sum(self):
        c = build_ctmc(2, [(0, "a", 1.0, 1), (0, "b", 2.0, 1), (1, "c", 1.0, 0)])
        assert c.Q[0, 1] == 3.0

    def test_self_loop_counts_for_throughput_not_generator(self):
        c = build_ctmc(2, [(0, "spin", 5.0, 0), (0, "go", 1.0, 1), (1, "back", 1.0, 0)])
        assert c.Q[0, 0] == -1.0  # only the real departure
        assert c.action_rates["spin"][0] == 5.0

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(SolverError):
            build_ctmc(2, [(0, "a", 0.0, 1)])
        with pytest.raises(SolverError):
            build_ctmc(2, [(0, "a", -1.0, 1)])

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(SolverError):
            CTMC(sp.identity(3, format="csr") * 0.0, labels=["only-one"])

    def test_non_square_rejected(self):
        with pytest.raises(SolverError):
            CTMC(sp.csr_matrix((2, 3)))

    def test_action_rate_vectors(self):
        c = two_state()
        assert c.action_rates["down"].tolist() == [1.0, 0.0]
        assert c.action_rates["up"].tolist() == [0.0, 3.0]


class TestStructure:
    def test_exit_rates(self):
        c = two_state()
        assert c.exit_rates().tolist() == [1.0, 3.0]
        assert c.max_exit_rate() == 3.0

    def test_absorbing_states(self):
        c = build_ctmc(3, [(0, "a", 1.0, 1), (1, "b", 1.0, 2)])
        assert c.absorbing_states().tolist() == [2]

    def test_irreducibility(self):
        assert two_state().is_irreducible()
        chain = build_ctmc(3, [(0, "a", 1.0, 1), (1, "b", 1.0, 2)])
        assert not chain.is_irreducible()

    def test_bottom_sccs(self):
        cases = [
            # 0 -> 1 <-> 2 : the bottom SCC is {1, 2}
            (3, [(0, "a", 1.0, 1), (1, "b", 1.0, 2), (2, "c", 1.0, 1)], [[1, 2]]),
            # transient 0 <-> 1 feeds the bottom components {2, 3} and {4, 5}
            (6, [(0, "a", 1.0, 1), (1, "b", 1.0, 0), (0, "l", 1.0, 2),
                 (1, "r", 1.0, 4), (2, "c", 1.0, 3), (3, "d", 1.0, 2),
                 (4, "e", 1.0, 5), (5, "f", 1.0, 4)], [[2, 3], [4, 5]]),
        ]
        for n, transitions, expected in cases:
            c = build_ctmc(n, transitions)
            bsccs = c.bottom_sccs()
            assert sorted(b.tolist() for b in bsccs) == expected
            # same arrays, same order as the per-arc loop it replaced
            assert [b.tolist() for b in bsccs] == [
                b.tolist() for b in bottom_sccs_by_loop(c)
            ]

    def test_restricted_to_rebuilds_diagonal(self):
        c = build_ctmc(3, [(0, "a", 1.0, 1), (1, "b", 1.0, 2), (2, "c", 1.0, 1),
                           (1, "leak", 9.0, 0)])
        sub = c.restricted_to(np.array([1, 2]))
        sums = np.asarray(sub.Q.sum(axis=1)).ravel()
        assert np.allclose(sums, 0.0)
        assert sub.n_states == 2
        assert sub.labels == []

    def test_uniformized_is_stochastic(self):
        P, lam = two_state().uniformized()
        assert lam >= 3.0
        sums = np.asarray(P.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0)
        assert P.min() >= 0.0

    def test_uniformized_rate_too_small_rejected(self):
        with pytest.raises(SolverError):
            two_state().uniformized(rate=0.5)

    def test_coo_triplets_exclude_diagonal(self):
        rows, cols, vals = two_state().to_coo_triplets()
        assert all(r != c for r, c in zip(rows, cols))
        assert sorted(vals.tolist()) == [1.0, 3.0]
