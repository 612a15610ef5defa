"""Ordinary lumpability by partition refinement.

State-space explosion is the stated disadvantage of the numerical
route (paper §1.1); exact aggregation is the classical mitigation.  A
partition is *ordinarily lumpable* if every state in a block has the
same total rate into every other block; the lumped chain over blocks is
then an exact CTMC whose stationary distribution aggregates the
original's.

The refinement loop is the standard one (split blocks by their rate
signature towards a splitter block until stable), quadratic in the
worst case but entirely adequate at the scale where one would use this
library — and the benchmark measures it honestly.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.ctmc.chain import CTMC, generator

__all__ = ["lump", "LumpedChain", "coarsest_lumping"]


class LumpedChain:
    """The result of lumping: the quotient chain plus the block map."""

    def __init__(self, chain: CTMC, block_of: np.ndarray, blocks: list[np.ndarray]):
        self.chain = chain
        self.block_of = block_of
        self.blocks = blocks

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def lift(self, pi_lumped: np.ndarray, original: CTMC) -> np.ndarray:
        """Distribute each block's probability over its members by the
        conditional steady-state within the block.

        For measures that are constant on blocks (the usual case when the
        initial partition respects them) a uniform split is exact for
        block-level questions; we expose the uniform split and document
        the caveat.
        """
        pi = np.zeros(original.n_states)
        for b, members in enumerate(self.blocks):
            pi[members] = pi_lumped[b] / len(members)
        return pi


def _csr_lists(chain: CTMC) -> tuple[list[int], list[int], list[float]]:
    """``Q``'s CSR arrays as Python lists, for per-row loops."""
    Q = chain.Q.tocsr()
    return Q.indptr.tolist(), Q.indices.tolist(), Q.data.tolist()


def _rates_into_blocks(i: int, indptr: list[int], indices: list[int],
                       data: list[float], block_of: list[int]) -> dict[int, float]:
    """State ``i``'s total rate into each block, summed left to right
    over its stored row (the diagonal skipped)."""
    into: dict[int, float] = {}
    for k in range(indptr[i], indptr[i + 1]):
        j = indices[k]
        if j != i:
            b = block_of[j]
            into[b] = into.get(b, 0.0) + data[k]
    return into


def coarsest_lumping(
    chain: CTMC,
    initial_partition: Callable[[int, str], object] | None = None,
    *,
    rate_tolerance: float = 1e-9,
) -> list[np.ndarray]:
    """The coarsest ordinarily-lumpable partition refining the initial
    one.

    ``initial_partition`` maps ``(state_index, label)`` to a block key;
    states whose measures must stay distinguishable should map to
    different keys.  Default: one single block (pure aggregation).
    """
    n = chain.n_states
    labels = chain.labels or [""] * n
    if initial_partition is None:
        keys = [0] * n
    else:
        keys = [initial_partition(i, labels[i]) for i in range(n)]

    # block_of[i] = current block id of state i
    uniq: dict[object, int] = {}
    block_of = np.empty(n, dtype=np.int64)
    for i, k in enumerate(keys):
        block_of[i] = uniq.setdefault(k, len(uniq))

    indptr, indices, data = _csr_lists(chain)
    changed = True
    while changed:
        changed = False
        n_blocks = int(block_of.max()) + 1
        block_ids = block_of.tolist()
        # signature of a state: tuple of (block, rounded rate into block)
        signatures: dict[int, dict[tuple, list[int]]] = {}
        for i in range(n):
            into = _rates_into_blocks(i, indptr, indices, data, block_ids)
            sig = tuple(
                sorted((b, round(r / rate_tolerance)) for b, r in into.items() if r != 0.0)
            )
            signatures.setdefault(block_ids[i], {}).setdefault(sig, []).append(i)
        new_block_of = np.empty(n, dtype=np.int64)
        next_id = 0
        for b in range(n_blocks):
            for sig, members in sorted(signatures.get(b, {}).items()):
                for i in members:
                    new_block_of[i] = next_id
                next_id += 1
        if next_id != n_blocks or not np.array_equal(new_block_of, block_of):
            # canonicalise ids so the loop terminates on stability
            block_of = new_block_of
            changed = next_id != n_blocks
    n_blocks = int(block_of.max()) + 1
    return [np.flatnonzero(block_of == b) for b in range(n_blocks)]


def lump(
    chain: CTMC,
    initial_partition: Callable[[int, str], object] | None = None,
    *,
    rate_tolerance: float = 1e-9,
) -> LumpedChain:
    """Lump ``chain`` by its coarsest ordinary lumping and build the
    quotient CTMC (including lumped per-action rate vectors, so
    throughput survives aggregation)."""
    blocks = coarsest_lumping(chain, initial_partition, rate_tolerance=rate_tolerance)
    n = chain.n_states
    block_of = np.empty(n, dtype=np.int64)
    for b, members in enumerate(blocks):
        block_of[members] = b
    # Every member of a block has the same rate into another block, so
    # the block's rate is the members' total over the block size.
    src, tgt, rates = chain.to_coo_triplets()
    src = block_of[src]
    Q_lumped = generator(len(blocks), src, block_of[tgt], rates / np.bincount(block_of)[src])

    labels = []
    for members in blocks:
        if chain.labels:
            labels.append("{" + ", ".join(chain.labels[m] for m in members[:3])
                          + (", ..." if len(members) > 3 else "") + "}")
        else:
            labels.append(f"block{len(labels)}")
    action_rates = {
        a: np.array([float(v[members].mean()) for members in blocks])
        for a, v in chain.action_rates.items()
    }
    lumped = CTMC(Q_lumped, labels=labels, action_rates=action_rates,
                  initial=int(block_of[chain.initial]))
    return LumpedChain(lumped, block_of, blocks)


def verify_lumpable(chain: CTMC, blocks: list[np.ndarray], tol: float = 1e-9) -> bool:
    """Check the ordinary-lumpability condition for a given partition."""
    n = chain.n_states
    block_of = np.empty(n, dtype=np.int64)
    for b, members in enumerate(blocks):
        block_of[members] = b
    indptr, indices, data = _csr_lists(chain)
    block_ids = block_of.tolist()
    for members in blocks:
        reference: dict[int, float] | None = None
        for i in members.tolist():
            into = _rates_into_blocks(i, indptr, indices, data, block_ids)
            into = {b: r for b, r in into.items() if abs(r) > tol}
            if reference is None:
                reference = into
            else:
                if set(reference) != set(into):
                    return False
                if any(abs(reference[b] - into[b]) > tol for b in reference):
                    return False
    return True
