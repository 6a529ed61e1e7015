"""The kernel-facing form of a topology: :class:`CSRAdjacency`.

The slot kernel (:class:`~repro.radio.kernels.scipy_csr.ScipyKernel`)
resolves each slot's channel against these index arrays: given one or
more sets of transmitter indices it produces per-vertex
``(counts, codes)`` pairs — the number of transmitting neighbors and
the sum of their 1-based indices.  Everything else about a slot
(populations, fault plans, collision semantics, energy charging)
lives above the kernel, in the engines; the kernel itself is exact
integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Tuple

import networkx as nx
import numpy as np

from ...errors import ConfigurationError


def row_positions(
    indptr: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Where the given CSR rows' entries sit, and each row's length.

    ``positions`` indexes the ``indices`` (and any per-entry data)
    array: every entry of ``rows[0]``, then of ``rows[1]``, and so on —
    the CSR gather both slot kernels start from.
    """
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    total = int(lens.sum())
    positions = (
        np.repeat(starts - np.cumsum(lens) + lens, lens)
        + np.arange(total, dtype=np.int64)
    )
    return positions, lens


@dataclass(frozen=True)
class CSRAdjacency:
    """An undirected topology compiled to CSR index arrays.

    The kernel-facing form of a graph: ``indices[indptr[i]:indptr[i+1]]``
    are the (contiguous ``0..n-1``) neighbor indices of vertex ``i``,
    sorted ascending.  All adjacency values are implicitly 1 (the RN
    model has unweighted symmetric links), so the arrays alone determine
    the kernel's output.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_graph(
        cls, graph: nx.Graph, index: Dict[Hashable, int]
    ) -> "CSRAdjacency":
        """Compile ``graph`` against a contiguous vertex ``index`` map.

        ``index`` must map every vertex to its row (the engine's vertex
        order); neighbor columns are sorted per row so the layout is
        canonical regardless of insertion order.
        """
        n = len(index)
        indptr = np.zeros(n + 1, dtype=np.int64)
        rows: List[np.ndarray] = []
        for vertex, i in index.items():
            nbrs = np.fromiter(
                (index[u] for u in graph.neighbors(vertex)), dtype=np.int64
            )
            nbrs.sort()
            rows.append(nbrs)
            indptr[i + 1] = len(nbrs)
        np.cumsum(indptr, out=indptr)
        indices = (
            np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
        )
        return cls(n=n, indptr=indptr, indices=indices)

    @property
    def nnz(self) -> int:
        """Number of stored entries (twice the edge count)."""
        return int(self.indptr[-1])

    def row(self, i: int) -> np.ndarray:
        """The (sorted) neighbor indices of vertex ``i`` (a view)."""
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def with_row_updates(
        self, updates: Mapping[int, np.ndarray]
    ) -> "CSRAdjacency":
        """A new adjacency with the given rows replaced, others shared.

        ``updates`` maps row index -> replacement neighbor array (int64,
        sorted ascending — the caller's contract, as for
        :meth:`from_graph`).  Unchanged spans of ``indices`` are copied
        in bulk, so patching between slots costs O(touched rows + one
        memcpy of nnz) instead of the full per-edge Python recompile of
        :meth:`from_graph` — this is the incremental path the dynamic
        topology layer (:mod:`repro.radio.dynamic`) patches engines
        through.
        """
        counts = np.diff(self.indptr)
        touched = sorted(updates)
        for i in touched:
            if not (0 <= i < self.n):
                raise ConfigurationError(
                    f"row update for vertex index {i} outside 0..{self.n - 1}"
                )
            counts[i] = updates[i].size
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        prev = 0
        for i in touched:
            src0, src1 = self.indptr[prev], self.indptr[i]
            dst0 = indptr[prev]
            indices[dst0:dst0 + (src1 - src0)] = self.indices[src0:src1]
            indices[indptr[i]:indptr[i + 1]] = updates[i]
            prev = i + 1
        src0, src1 = self.indptr[prev], self.indptr[self.n]
        dst0 = indptr[prev]
        indices[dst0:dst0 + (src1 - src0)] = self.indices[src0:src1]
        return CSRAdjacency(n=self.n, indptr=indptr, indices=indices)
