"""Vectorized SINR arbitration over CSR adjacency (int64, numpy-only).

The binary collision models reduce each slot to transmitter *counts*
per listener, which :class:`~repro.radio.kernels.scipy_csr.ScipyKernel`
computes.  SINR arbitration needs per-edge *signals*, so it has its own
kernel here in pure numpy: every operation is an int64 sum, maximum, or
comparison, which are exact and order-independent.

The fused entry point :func:`sinr_arbitrate_many` processes several
lanes (replica batching) or members (mega batching) in one pass by
offsetting each block's listener columns into a disjoint range — the
same block-diagonal trick as
:class:`~repro.radio.kernels.megabatch.MegaBatchPlan`, and bit-identical
to per-lane arbitration because the ranges never interact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Sequence, Tuple

import numpy as np

from ...errors import ConfigurationError
from ..sinr import THRESHOLD_DEN, SinrField, SinrParams
from .base import CSRAdjacency, row_positions


@dataclass(frozen=True)
class SinrCsr:
    """A topology's compiled SINR state: CSR gains + threshold integers.

    ``gains[k]`` is the fixed-point channel gain of CSR entry ``k``
    (transmitter row -> listener column); ``mults`` / ``costs`` are the
    power ladder as int64 arrays indexed by level.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    gains: np.ndarray
    mults: np.ndarray
    costs: np.ndarray
    threshold_milli: int
    noise_floor: int

    @classmethod
    def compile(
        cls,
        field: SinrField,
        adjacency: CSRAdjacency,
        vertices: Sequence[Hashable],
    ) -> "SinrCsr":
        """Align a :class:`SinrField`'s gain table with a CSR adjacency."""
        params = field.params
        return cls(
            n=adjacency.n,
            indptr=adjacency.indptr,
            indices=adjacency.indices,
            gains=field.csr_gains(
                adjacency.indptr, adjacency.indices, vertices
            ),
            mults=np.asarray(params.power_levels, dtype=np.int64),
            costs=np.asarray(params.power_costs, dtype=np.int64),
            threshold_milli=params.threshold_milli,
            noise_floor=params.noise_floor,
        )

    def with_gains(self, gains: np.ndarray) -> "SinrCsr":
        """Same topology and ladder, replacement gain array (tests)."""
        return SinrCsr(
            n=self.n, indptr=self.indptr, indices=self.indices,
            gains=np.asarray(gains, dtype=np.int64), mults=self.mults,
            costs=self.costs, threshold_milli=self.threshold_milli,
            noise_floor=self.noise_floor,
        )


def sinr_arbitrate_many(
    blocks: Sequence[Tuple[SinrCsr, np.ndarray, np.ndarray]],
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Arbitrate every lane's slot in one fused pass.

    Each block is ``(csr, tx_idx, tx_levels)``: the compiled topology,
    the transmitting vertex indices (int64, any order), and each
    transmitter's power level.  Returns per block
    ``(counts, winner_code, deliver)`` arrays of length ``csr.n``:

    - ``counts[v]`` — number of transmitting neighbors of ``v``;
    - ``winner_code[v]`` — the uniquely strongest transmitter's local
      vertex index plus one (valid only where ``deliver``) — the same
      1-based sender-code convention as the binary-count kernels;
    - ``deliver[v]`` — True iff the strongest signal is unique and
      clears the SINR threshold.
    """
    results: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    cols_parts: List[np.ndarray] = []
    sig_parts: List[np.ndarray] = []
    code_parts: List[np.ndarray] = []
    shapes: List[Tuple[int, int]] = []  # (offset, n) per block
    offset = 0
    for csr, tx_idx, tx_levels in blocks:
        tx_idx = np.asarray(tx_idx, dtype=np.int64)
        tx_levels = np.asarray(tx_levels, dtype=np.int64)
        if tx_idx.shape != tx_levels.shape:
            raise ConfigurationError(
                "tx_idx and tx_levels must have identical shapes"
            )
        shapes.append((offset, csr.n))
        if tx_idx.size:
            # Every (transmitter, listener) edge, transmitter-major.
            pos, lens = row_positions(csr.indptr, tx_idx)
            if pos.size:
                cols_parts.append(csr.indices[pos] + offset)
                sig_parts.append(
                    csr.gains[pos] * np.repeat(csr.mults[tx_levels], lens)
                )
                code_parts.append(np.repeat(tx_idx + 1, lens))
        offset += csr.n
    if cols_parts:
        cols = np.concatenate(cols_parts)
        sig = np.concatenate(sig_parts)
        codes = np.concatenate(code_parts)
    else:
        cols = np.empty(0, dtype=np.int64)
        sig = np.empty(0, dtype=np.int64)
        codes = np.empty(0, dtype=np.int64)
    counts_all = np.bincount(cols, minlength=offset).astype(np.int64)
    power_all = np.zeros(offset, dtype=np.int64)
    np.add.at(power_all, cols, sig)
    best_all = np.zeros(offset, dtype=np.int64)
    np.maximum.at(best_all, cols, sig)
    at_max = sig == best_all[cols]
    ties_all = np.zeros(offset, dtype=np.int64)
    np.add.at(ties_all, cols, at_max.astype(np.int64))
    code_all = np.zeros(offset, dtype=np.int64)
    np.add.at(code_all, cols, np.where(at_max, codes, 0))
    for (off, n), (csr, _, _) in zip(shapes, blocks):
        counts = counts_all[off:off + n]
        best = best_all[off:off + n]
        power = power_all[off:off + n]
        num = csr.threshold_milli
        deliver = (ties_all[off:off + n] == 1) & (
            (THRESHOLD_DEN + num) * best >= num * (power + csr.noise_floor)
        )
        results.append((counts, code_all[off:off + n], deliver))
    return results


def sinr_arbitrate(
    csr: SinrCsr, tx_idx: np.ndarray, tx_levels: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-lane arbitration (see :func:`sinr_arbitrate_many`)."""
    return sinr_arbitrate_many([(csr, tx_idx, tx_levels)])[0]


def compile_sinr(
    params_or_field: "SinrParams | SinrField",
    graph,
    adjacency: CSRAdjacency,
    vertices: Sequence[Hashable],
) -> SinrCsr:
    """Convenience: build the field (if needed) and compile it."""
    field = (
        params_or_field
        if isinstance(params_or_field, SinrField)
        else SinrField(graph, params_or_field)
    )
    return SinrCsr.compile(field, adjacency, vertices)
