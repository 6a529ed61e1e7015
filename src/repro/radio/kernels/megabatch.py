"""Block-diagonal mega-batch backend: heterogeneous cells, one product.

PR 5's replica batching fuses lanes that share one topology.  This
backend lifts that restriction: the adjacencies of *different*
topologies are packed into one block-diagonal CSR matrix

.. code-block:: text

    A = diag(A_0, A_1, ..., A_{k-1})        vertex m,i -> offset_m + i

and every lane's transmitter row — whatever member topology it runs on
— joins the same stacked product per slot.  Because the blocks share no
columns, member ``m``'s slice ``[offset_m, offset_m + n_m)`` of a
lane's result row is exactly the product that lane would have computed
against ``A_m`` alone, up to the code shift: global sender codes are
``global_index + 1 = local_index + 1 + offset_m``, so subtracting
``offset_m * count`` recovers the member-local codes **exactly** (int64
arithmetic, every count).  Bit-identity with per-member execution is
therefore structural, not numerical luck.

The fused product runs on the one slot kernel
(:class:`~repro.radio.kernels.scipy_csr.ScipyKernel`); "mega-batch" is
a packing strategy, not a second arithmetic.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ...errors import ConfigurationError
from .base import CSRAdjacency
from .scipy_csr import SCIPY_KERNEL


class MegaBatchPlan:
    """K member adjacencies packed block-diagonally for fused products.

    Parameters
    ----------
    members:
        The member topologies' CSR adjacencies, in member-index order.
    """

    def __init__(self, members: Sequence[CSRAdjacency]) -> None:
        if not members:
            raise ConfigurationError(
                "MegaBatchPlan requires at least one member adjacency"
            )
        self.members: List[CSRAdjacency] = list(members)
        offsets = np.zeros(len(self.members) + 1, dtype=np.int64)
        for m, adj in enumerate(self.members):
            offsets[m + 1] = offsets[m] + adj.n
        #: ``offsets[m]`` is member ``m``'s first global vertex index.
        self.offsets = offsets
        self.n_total = int(offsets[-1])
        indptr_parts = [np.zeros(1, dtype=np.int64)]
        indices_parts = []
        nnz = 0
        for m, adj in enumerate(self.members):
            indptr_parts.append(adj.indptr[1:] + nnz)
            indices_parts.append(adj.indices + offsets[m])
            nnz += adj.nnz
        block = CSRAdjacency(
            n=self.n_total,
            indptr=np.concatenate(indptr_parts),
            indices=(
                np.concatenate(indices_parts)
                if indices_parts else np.zeros(0, dtype=np.int64)
            ),
        )
        self._state = SCIPY_KERNEL.prepare(block)

    # ------------------------------------------------------------------
    def counts_codes_many(
        self, entries: Sequence[Tuple[int, np.ndarray]]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Resolve many lanes, possibly on different members, at once.

        ``entries[j] = (member, tx_local)`` names lane ``j``'s member
        topology and its member-local transmitter indices.  Returns one
        member-local ``(counts, codes)`` pair per entry, in order —
        each bit-identical to
        ``members[member].counts_codes_many([tx_local])`` computed
        alone (see the module docstring for the offset argument).
        """
        offsets = self.offsets
        global_lists = [
            np.asarray(tx, dtype=np.int64) + offsets[member]
            for member, tx in entries
        ]
        resolved = SCIPY_KERNEL.counts_codes_many(self._state, global_lists)
        out: List[Tuple[np.ndarray, np.ndarray]] = []
        for (member, _), (counts, codes) in zip(entries, resolved):
            off = int(offsets[member])
            end = int(offsets[member + 1])
            counts_m = counts[off:end]
            codes_m = codes[off:end]
            if off:
                # Global sender codes are local codes + offset per
                # transmitting neighbor; undo the shift exactly.
                codes_m = codes_m - off * counts_m
            out.append((counts_m, codes_m))
        return out
