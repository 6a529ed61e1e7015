"""Block-diagonal mega-batch backend: heterogeneous cells, one kernel call.

Replica batching fuses lanes that share one topology.  This backend
lifts that restriction: the adjacencies of *different* topologies are
packed into one block-diagonal CSR matrix

.. code-block:: text

    A = diag(A_0, A_1, ..., A_{k-1})        vertex m,i -> offset_m + i

and every lane's transmitters — whatever member topology it runs on —
join the same kernel call per slot.  The prepared state records the
member blocks, so the kernel resolves each lane over its own member's
``n_m`` vertices only (never the whole packed matrix), counting sender
codes from the block's first vertex.  Because the blocks share no
columns, a lane's counts and codes are exactly the ones it would have
computed against ``A_m`` alone: bit-identity with per-member execution
is structural, not numerical luck.

The fused call runs on the one slot kernel
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
    """K member adjacencies packed block-diagonally for fused kernel calls.

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
        self._state = SCIPY_KERNEL.prepare(block)._replace(blocks=offsets)
        self._offsets: List[int] = offsets.tolist()

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
        alone (see the module docstring).
        """
        offsets = self._offsets
        lanes = [
            (member, np.asarray(tx, dtype=np.int64)) for member, tx in entries
        ]
        resolved = iter(SCIPY_KERNEL.counts_codes_many(
            self._state,
            [tx + offsets[member] for member, tx in lanes if tx.size],
        ))
        # Nobody transmits on an empty lane: the kernel could not tell
        # which block it runs on, and the answer is all zeros anyway.
        return [
            next(resolved) if tx.size
            else (np.zeros(self.members[member].n, dtype=np.int64),
                  np.zeros(self.members[member].n, dtype=np.int64))
            for member, tx in lanes
        ]
