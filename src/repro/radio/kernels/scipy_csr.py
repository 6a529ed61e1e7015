"""The slot kernel: one :mod:`scipy.sparse` product per (batched) slot.

The arithmetic core of the vectorized tier.  A single-lane slot stacks
a dense (2, |tx|) indicator/code matrix against the transmitters'
adjacency rows; a replica batch stacks the lanes' rows into one sparse
``(2R, n)`` matrix and resolves every lane with one product (exactly
the flops of R separate products, none of the per-call overhead).  All
arithmetic is exact int64, so no evaluation order can change a result.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
from scipy import sparse as _sparse

from .base import CSRAdjacency


class ScipyKernel:
    """Per-slot counts/codes arithmetic on a scipy CSR matrix.

    Stateless: per-topology state is whatever :meth:`prepare` returns,
    threaded back into the ``counts_codes*`` calls by the caller, so
    the one instance :data:`SCIPY_KERNEL` serves every compiled
    topology.
    """

    def prepare(self, adjacency: CSRAdjacency) -> _sparse.csr_matrix:
        """Build the scipy CSR matrix (all values 1, int64)."""
        data = np.ones(adjacency.nnz, dtype=np.int64)
        return _sparse.csr_matrix(
            (data, adjacency.indices, adjacency.indptr),
            shape=(adjacency.n, adjacency.n),
        )

    def counts_codes(
        self, state, tx_idx: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-vertex (transmitting-neighbor count, summed sender codes).

        Sender codes are 1-based transmitter indices; where the count is
        exactly 1 the code minus one *is* the unique sender's index.
        """
        sub = state[tx_idx]
        stacked = np.vstack(
            [np.ones(len(tx_idx), dtype=np.int64), tx_idx + 1]
        )
        out = stacked @ sub
        return out[0], out[1]

    def counts_codes_many(
        self, state, tx_lists: Sequence[np.ndarray]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """:meth:`counts_codes` for many independent replicas at once.

        ``tx_lists[r]`` holds replica ``r``'s transmitter indices; the
        per-replica pairs come back in the same order, each bit-identical
        to its own :meth:`counts_codes` call (entries of distinct
        replicas never mix — exact int64 arithmetic guarantees it).
        """
        replicas = len(tx_lists)
        sizes = [len(tx) for tx in tx_lists]
        indptr = np.zeros(2 * replicas + 1, dtype=np.int64)
        for r, size in enumerate(sizes):
            indptr[2 * r + 1] = indptr[2 * r] + size
            indptr[2 * r + 2] = indptr[2 * r + 1] + size
        indices = np.concatenate(
            [col for tx in tx_lists for col in (tx, tx)]
        ) if replicas else np.zeros(0, dtype=np.int64)
        data = np.concatenate(
            [col for tx in tx_lists
             for col in (np.ones(len(tx), dtype=np.int64), tx + 1)]
        ) if replicas else np.zeros(0, dtype=np.int64)
        stacked = _sparse.csr_matrix(
            (data, indices, indptr), shape=(2 * replicas, state.shape[0])
        )
        out = np.asarray((stacked @ state).todense())
        return [(out[2 * r], out[2 * r + 1]) for r in range(replicas)]


#: The one kernel instance every engine resolves its slots through.
SCIPY_KERNEL = ScipyKernel()
