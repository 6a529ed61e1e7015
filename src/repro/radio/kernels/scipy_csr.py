"""The slot kernel: one CSR gather and bincount per (batched) slot.

The arithmetic core of the vectorized tier.  A slot gathers the
transmitters' adjacency rows (:func:`~repro.radio.kernels.base.row_positions`)
and counts, per listener column, the transmitting neighbors and the sum
of their 1-based indices with :func:`numpy.bincount`.  A batch of lanes
is one gather and one bincount: each lane's columns are shifted into a
disjoint range, so lanes never mix and each gets exactly the result of
its own call.

Counts are int64.  Code sums go through bincount's float64 weights,
which is exact: a vertex's code sum is at most ``n * n``, and
:meth:`ScipyKernel.prepare` rejects a matrix whose ``n * n`` reaches
``2**53``.  (The class keeps the name it had when the product ran on
:mod:`scipy.sparse`.)
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from ...errors import ConfigurationError
from .base import CSRAdjacency, row_positions

#: Float64 holds every integer below this exactly.
_EXACT_FLOAT_BOUND = 2 ** 53


class KernelState(NamedTuple):
    """A prepared adjacency: its CSR arrays and its diagonal blocks.

    ``blocks`` are the offsets of the block-diagonal packing the matrix
    is made of (``[0, n]`` for one topology; one block per member for a
    :class:`~repro.radio.kernels.megabatch.MegaBatchPlan`).  No edge
    crosses a block boundary.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    blocks: np.ndarray

    @property
    def nnz(self) -> int:
        """Number of stored entries (twice the edge count)."""
        return int(self.indptr[-1])


def _bincounts(
    cols: np.ndarray, codes: np.ndarray, size: int
) -> Tuple[np.ndarray, np.ndarray]:
    counts = np.bincount(cols, minlength=size)
    sums = np.bincount(cols, weights=codes, minlength=size)
    return counts, sums.astype(np.int64)


class ScipyKernel:
    """Per-slot counts/codes arithmetic on CSR index arrays.

    Stateless: per-topology state is whatever :meth:`prepare` returns,
    threaded back into the ``counts_codes*`` calls by the caller, so
    the one instance :data:`SCIPY_KERNEL` serves every compiled
    topology.
    """

    def prepare(self, adjacency: CSRAdjacency) -> KernelState:
        """The kernel state of one topology (a single diagonal block)."""
        if adjacency.n * adjacency.n >= _EXACT_FLOAT_BOUND:
            raise ConfigurationError(
                f"{adjacency.n} vertices is too many for exact code sums"
            )
        return KernelState(
            n=adjacency.n,
            indptr=adjacency.indptr,
            indices=adjacency.indices,
            blocks=np.array([0, adjacency.n], dtype=np.int64),
        )

    def counts_codes(
        self, state: KernelState, tx_idx: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-vertex (transmitting-neighbor count, summed sender codes).

        Sender codes are 1-based transmitter indices; where the count is
        exactly 1 the code minus one *is* the unique sender's index.
        """
        tx_idx = np.asarray(tx_idx, dtype=np.int64)
        pos, lens = row_positions(state.indptr, tx_idx)
        return _bincounts(
            state.indices[pos], np.repeat(tx_idx + 1, lens), state.n
        )

    def counts_codes_many(
        self, state: KernelState, tx_lists: Sequence[np.ndarray]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """:meth:`counts_codes` for many independent lanes at once.

        ``tx_lists[r]`` holds lane ``r``'s transmitter indices; the
        per-lane pairs come back in the same order.  Each lane is
        resolved over the diagonal block its transmitters lie in, with
        sender codes counted from the block's first vertex — the whole
        matrix for one topology, where every pair is bit-identical to
        the lane's own :meth:`counts_codes` call.  A lane with no
        transmitters gets the whole matrix's (zero) result.
        """
        lanes = len(tx_lists)
        if not lanes:
            return []
        sizes = np.fromiter((len(tx) for tx in tx_lists), dtype=np.int64,
                            count=lanes)
        all_tx = np.concatenate(tx_lists).astype(np.int64, copy=False)
        lane_of_tx = np.repeat(np.arange(lanes), sizes)
        lo = np.zeros(lanes, dtype=np.int64)
        width = np.full(lanes, state.n, dtype=np.int64)
        blocks = state.blocks
        if len(blocks) > 2:
            some = np.flatnonzero(sizes)
            first = all_tx[(np.cumsum(sizes) - sizes)[some]]
            b = np.searchsorted(blocks, first, side="right") - 1
            lo[some] = blocks[b]
            width[some] = blocks[b + 1] - blocks[b]
            rel = all_tx - lo[lane_of_tx]
            if ((rel < 0) | (rel >= width[lane_of_tx])).any():
                raise ConfigurationError(
                    "a lane's transmitters must lie in one diagonal block"
                )
        base = np.cumsum(width) - width
        pos, lens = row_positions(state.indptr, all_tx)
        cols = state.indices[pos] + np.repeat((base - lo)[lane_of_tx], lens)
        local = all_tx + 1 - lo[lane_of_tx]
        counts, codes = _bincounts(
            cols, np.repeat(local, lens), int(base[-1] + width[-1])
        )
        return [
            (counts[b:b + w], codes[b:b + w])
            for b, w in zip(base.tolist(), width.tolist())
        ]


#: The one kernel instance every engine resolves its slots through.
SCIPY_KERNEL = ScipyKernel()
