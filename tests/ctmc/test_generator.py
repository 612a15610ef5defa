"""The one generator builder, checked against the recipes it stands for.

Every generator and balance system in :mod:`repro.ctmc` is built by
:func:`repro.ctmc.chain.generator` from index arrays.  The reference
functions below are the scipy recipes that build the same matrices the
long way round (COO → CSR → ``sum_duplicates`` → ``+ sp.diags``, LIL
row and diagonal edits, fancy-index slicing); the builder's CSR arrays
must equal theirs bit for bit, so no steady-state vector, passage time
or measure moves.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.ctmc import build_ctmc, lump
from repro.ctmc.chain import CTMC, assemble_ctmc, generator
from repro.ctmc.dtmc import embedded_dtmc
from repro.ctmc.passage import _absorbing_chain, _entry_arcs, visit_frequency
from repro.ctmc.steady import _balance_system, steady_state
from repro.pepa import parse_model
from repro.pepa.sensitivity import action_generator_derivative
from repro.pepa.statespace import derive


# ----------------------------------------------------------------------
# Reference recipes
# ----------------------------------------------------------------------
def reference_generator(n, source, target, rates):
    """COO → CSR → ``sum_duplicates`` → ``+ sp.diags``."""
    off = source != target
    Q = sp.coo_matrix((rates[off], (source[off], target[off])), shape=(n, n)).tocsr()
    Q.sum_duplicates()
    diag = -np.asarray(Q.sum(axis=1)).ravel()
    return (Q + sp.diags(diag)).tocsr()


def reference_restriction(Q, states):
    """Slice rows and columns, clear the diagonal in LIL, rebuild it."""
    sub = Q[states][:, states].tolil()
    sub.setdiag(0.0)
    sub = sub.tocsr()
    sub.eliminate_zeros()
    diag = -np.asarray(sub.sum(axis=1)).ravel()
    return (sub + sp.diags(diag)).tocsr()


def reference_balance(Q):
    """``Qᵀ`` with its last row replaced by ones, through LIL."""
    n = Q.shape[0]
    A = Q.transpose().tocsr(copy=True).tolil()
    A[n - 1, :] = np.ones(n)
    return A.tocsc()


def reference_absorbing(Q, mask):
    """Clear the target rows in LIL."""
    Q = Q.tolil(copy=True)
    for t in np.flatnonzero(mask):
        Q.rows[t] = []
        Q.data[t] = []
    return Q.tocsr()


def reference_lumped(Q, blocks):
    """The quotient generator by a loop over ``Q``'s entries."""
    block_of = np.empty(Q.shape[0], dtype=np.int64)
    for b, members in enumerate(blocks):
        block_of[members] = b
    coo = Q.tocoo()
    rows, cols, vals = [], [], []
    for i, j, v in zip(coo.row, coo.col, coo.data):
        if i == j or v <= 0:
            continue
        bi, bj = int(block_of[i]), int(block_of[j])
        if bi != bj:
            rows.append(bi)
            cols.append(bj)
            vals.append(v / len(blocks[bi]))
    k = len(blocks)
    off = sp.coo_matrix((vals, (rows, cols)), shape=(k, k)).tocsr()
    off.sum_duplicates()
    diag = -np.asarray(off.sum(axis=1)).ravel()
    return (off + sp.diags(diag)).tocsr()


def assert_same_arrays(actual, expected):
    assert actual.format == expected.format
    assert actual.shape == expected.shape
    for name in ("data", "indices", "indptr"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


# ----------------------------------------------------------------------
# Arc sets
# ----------------------------------------------------------------------
def random_arcs(seed, *, max_states=40, density=4.0):
    """Arcs with parallel arcs, self-loops and absorbing states."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_states))
    m = int(rng.integers(0, int(density * n) + 1))
    source = rng.integers(0, n, m)
    target = rng.integers(0, n, m)
    # parallel arcs: repeat a slice of the arcs with fresh rates
    repeat = rng.integers(0, m + 1) if m else 0
    source = np.concatenate([source, source[:repeat]])
    target = np.concatenate([target, target[:repeat]])
    absorbing = rng.random(n) < 0.15
    live = ~absorbing[source]
    source, target = source[live], target[live]
    rates = rng.exponential(2.0, source.size) + 1e-3
    return n, source, target, rates


SEEDS = range(60)


def random_chain(seed, **kwargs):
    n, source, target, rates = random_arcs(seed, **kwargs)
    return assemble_ctmc(n, source, target, rates,
                         np.zeros(source.size, dtype=np.int64), ("a",))


class TestGenerator:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_the_coo_diags_recipe(self, seed):
        n, source, target, rates = random_arcs(seed)
        assert_same_arrays(generator(n, source, target, rates),
                           reference_generator(n, source, target, rates))

    def test_long_rows_of_parallel_arcs(self):
        # rows far longer than 16 entries, many arcs per pair
        n, source, target, rates = random_arcs(7, max_states=12, density=300.0)
        assert_same_arrays(generator(n, source, target, rates),
                           reference_generator(n, source, target, rates))

    def test_empty_arc_set(self):
        none = np.zeros(0, dtype=np.int64)
        Q = generator(4, none, none, np.zeros(0))
        assert Q.shape == (4, 4) and Q.nnz == 0
        assert_same_arrays(Q, reference_generator(4, none, none, np.zeros(0)))

    def test_absorbing_state_stores_no_diagonal(self):
        Q = generator(3, np.array([0, 0, 1]), np.array([1, 1, 2]),
                      np.array([1.0, 2.0, 4.0]))
        assert Q.toarray().tolist() == [[-3.0, 3.0, 0.0], [0.0, -4.0, 4.0],
                                         [0.0, 0.0, 0.0]]
        assert Q.nnz == 4

    def test_self_loops_only(self):
        Q = generator(2, np.array([0, 1]), np.array([0, 1]), np.array([1.0, 2.0]))
        assert Q.nnz == 0

    def test_assembled_chain_uses_it(self):
        chain = build_ctmc(3, [(0, "a", 1.0, 1), (0, "b", 0.5, 1), (1, "a", 2.0, 0),
                               (1, "c", 3.0, 1)])
        assert_same_arrays(chain.Q, generator(3, np.array([0, 0, 1, 1]),
                                              np.array([1, 1, 0, 1]),
                                              np.array([1.0, 0.5, 2.0, 3.0])))


class TestRestriction:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_the_lil_recipe(self, seed):
        chain = random_chain(seed)
        rng = np.random.default_rng(1000 + seed)
        states = np.flatnonzero(rng.random(chain.n_states) < 0.6)
        if states.size == 0:
            states = np.array([0])
        assert_same_arrays(chain.restricted_to(states).Q,
                           reference_restriction(chain.Q, states))

    @pytest.mark.parametrize("seed", range(10))
    def test_unsorted_states(self, seed):
        chain = random_chain(seed)
        order = np.random.default_rng(seed).permutation(chain.n_states)
        states = order[: max(1, chain.n_states // 2)]
        assert_same_arrays(chain.restricted_to(states).Q,
                           reference_restriction(chain.Q, states))

    def test_bottom_component_of_a_reducible_chain(self):
        chain = random_chain(3)
        for members in chain.bottom_sccs():
            assert_same_arrays(chain.restricted_to(members).Q,
                               reference_restriction(chain.Q, members))

    def test_leaves_lazy_labels_unrendered(self):
        chain = build_ctmc(3, [(0, "a", 1.0, 1), (1, "b", 2.0, 0), (2, "c", 1.0, 0)],
                           labels=lambda: ["x", "y", "z"])
        sub = chain.restricted_to(np.array([0, 1]))
        assert chain.label_builds == sub.label_builds == 0
        assert sub.labels == ["x", "y"]


class TestBalanceSystem:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_the_lil_recipe(self, seed):
        chain = random_chain(seed)
        A, b = _balance_system(chain)
        assert_same_arrays(A, reference_balance(chain.Q))
        assert b.tolist() == [0.0] * (chain.n_states - 1) + [1.0]

    def test_last_state_absorbing_and_first_empty(self):
        # column n-1 of Q is dropped even where it is the only entry
        Q = generator(3, np.array([0, 1]), np.array([2, 2]), np.array([1.0, 2.0]))
        A, _ = _balance_system(CTMC(Q))
        assert_same_arrays(A, reference_balance(Q))

    def test_solution_is_the_stationary_vector(self):
        chain = build_ctmc(3, [(0, "a", 1.0, 1), (1, "b", 2.0, 2), (2, "c", 3.0, 0)])
        A, b = _balance_system(chain)
        pi = np.linalg.solve(A.toarray(), b)
        assert np.allclose(pi, steady_state(chain))


class TestLumping:
    @staticmethod
    def replicated(seed):
        """Two copies of a random chain with symmetric cross arcs: state
        ``i`` and its replica ``i + m`` have the same rate into every
        pair, so the pairs lump."""
        m, source, target, rates = random_arcs(seed, max_states=15)
        rng = np.random.default_rng(seed)
        cross = rng.exponential(1.0, source.size) + 1e-3
        arcs = [(source, target, rates), (source + m, target + m, rates),
                (source, target + m, cross), (source + m, target, cross)]
        src, tgt, r = (np.concatenate(parts) for parts in zip(*arcs))
        return assemble_ctmc(2 * m, src, tgt, r, np.zeros(src.size, dtype=np.int64), ("a",))

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_the_loop_recipe(self, seed):
        chain = self.replicated(seed)
        lumped = lump(chain)
        assert_same_arrays(lumped.chain.Q, reference_lumped(chain.Q, lumped.blocks))

    def test_blocks_merge(self):
        chain = self.replicated(4)
        assert lump(chain).n_blocks < chain.n_states


class TestAbsorbingChain:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_the_lil_recipe(self, seed):
        chain = random_chain(seed)
        mask = np.random.default_rng(2000 + seed).random(chain.n_states) < 0.3
        absorbed = _absorbing_chain(chain, mask, 0)
        assert_same_arrays(absorbed.Q, reference_absorbing(chain.Q, mask))
        assert absorbed.initial == 0

    @pytest.mark.parametrize("seed", range(20))
    def test_entry_flux_equals_the_loop(self, seed):
        chain = random_chain(seed)
        mask = np.random.default_rng(3000 + seed).random(chain.n_states) < 0.4
        coo = chain.Q.tocoo()
        pi = np.random.default_rng(seed).random(chain.n_states)
        flux, per_state = 0.0, np.zeros(chain.n_states)
        for i, j, v in zip(coo.row, coo.col, coo.data):
            if i != j and v > 0 and not mask[i] and mask[j]:
                flux += pi[i] * v
                per_state[i] += v
        src, rates = _entry_arcs(chain, mask)
        assert np.bincount(src, weights=rates, minlength=chain.n_states).tobytes() \
            == per_state.tobytes()
        if mask.any():
            assert visit_frequency(chain, np.flatnonzero(mask), pi) == float(flux)


class TestOtherArrayBuilt:
    @pytest.mark.parametrize("seed", range(20))
    def test_embedded_dtmc_equals_the_loop(self, seed):
        chain = random_chain(seed)
        exit_rates = chain.exit_rates()
        coo = chain.Q.tocoo()
        rows, cols, vals = [], [], []
        for i, j, v in zip(coo.row, coo.col, coo.data):
            if i != j and v > 0:
                rows.append(i)
                cols.append(j)
                vals.append(v / exit_rates[i])
        for i in np.flatnonzero(exit_rates == 0.0):
            rows.append(int(i))
            cols.append(int(i))
            vals.append(1.0)
        n = chain.n_states
        P = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        P.sum_duplicates()
        assert_same_arrays(embedded_dtmc(chain), P)

    def test_action_derivative_is_the_generator_of_its_arcs(self):
        space = derive(parse_model("""
            P = (a, 1.0).Q + (a, 2.0).Q + (b, 3.0).P;
            Q = (a, 0.5).P + (c, 4.0).Q;
            P
        """))
        arcs = space.arc_arrays
        mine = arcs.action == arcs.actions.index("a")
        dQ = action_generator_derivative(space, "a")
        assert_same_arrays(dQ, reference_generator(space.size, arcs.source[mine],
                                                   arcs.target[mine], arcs.rate[mine]))
        assert space.arc_builds == 0
