"""Vectorized slot engine: batched channel arbitration on a CSR matrix.

:class:`FastRadioNetwork` executes exactly the Section 1.1 semantics of
:class:`~repro.radio.network.RadioNetwork`, but resolves every slot's
channel for *all* listeners at once:

- the topology is compiled once into a CSR adjacency matrix over the
  contiguous vertex indexing ``0..n-1``;
- each slot, gathering the transmitters' adjacency rows yields, per
  vertex, the number of transmitting neighbors *and* the (summed)
  transmitter indices;
- a vertex with transmitter-count exactly 1 decodes its unique sender
  directly from the index sum — no per-listener neighbor scan;
- energy is accumulated per vertex and reaches the ledger in one batch.

Each slot drives a :class:`~repro.radio.population.SlotPopulation`:
the per-device objects of any protocol
(:class:`~repro.radio.population.DevicePopulation`, with the same
``device.step`` / ``device.receive`` callbacks, private RNG streams and
trace event order as the reference engine) or a columnar Decay phase
(:class:`repro.primitives.decay.DecayPhase`).  A protocol run with the
same seed produces bit-for-bit identical slot counts, energy ledgers,
and event traces on either engine — a guarantee enforced by
``tests/radio/test_engine_equivalence.py``.

The counts/codes arithmetic itself lives in
:class:`~repro.radio.kernels.scipy_csr.ScipyKernel`
(:mod:`repro.radio.kernels`): one gather and bincount per slot.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import networkx as nx
import numpy as np

from ..rng import SeedLike
from .channel import CollisionModel
from .device import Device
from .dynamic import DynamicTopology, TopologyPatch
from .energy import EnergyLedger
from .faults import FaultModel
from .engine_registry import register_engine
from .kernels import SCIPY_KERNEL, CSRAdjacency
from .kernels.sinr_csr import SinrCsr, sinr_arbitrate
from .message import MessageSizePolicy
from .network import SlotEngineBase
from .population import (
    DevicePopulation,
    Resolution,
    SlotCore,
    SlotPopulation,
    gathered,
)
from .sinr import SinrParams
from .trace import EventTrace


class CompiledTopology:
    """A topology compiled once for vectorized channel arbitration.

    Owns the contiguous ``0..n-1`` vertex indexing and the CSR adjacency
    (:class:`~repro.radio.kernels.base.CSRAdjacency`) that both the
    single-replica fast engine and the replica-batched engine
    (:mod:`repro.radio.batch_engine`) resolve slots against.  The
    arithmetic itself runs on
    :class:`~repro.radio.kernels.scipy_csr.ScipyKernel`.
    """

    def __init__(self, graph: nx.Graph) -> None:
        self.vertices: List[Hashable] = list(graph.nodes)
        self.index: Dict[Hashable, int] = {
            v: i for i, v in enumerate(self.vertices)
        }
        self.n = len(self.vertices)
        self.adjacency = CSRAdjacency.from_graph(graph, self.index)
        self._kernel_state = SCIPY_KERNEL.prepare(self.adjacency)

    # ------------------------------------------------------------------
    def counts_codes(self, tx_idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-vertex (transmitting-neighbor count, summed sender codes).

        Sender codes are 1-based transmitter indices; where the count is
        exactly 1 the code minus one *is* the unique sender's index.
        """
        return SCIPY_KERNEL.counts_codes(self._kernel_state, tx_idx)

    def counts_codes_many(
        self, tx_lists: Sequence[np.ndarray]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """:meth:`counts_codes` for many independent replicas at once.

        ``tx_lists[r]`` holds replica ``r``'s transmitter indices; the
        per-replica (counts, codes) pairs come back in the same order,
        resolved in one fused kernel call.  Entries of distinct
        replicas never mix, so each replica's result is bit-identical
        to its own :meth:`counts_codes` call.
        """
        return SCIPY_KERNEL.counts_codes_many(self._kernel_state, tx_lists)

    def patch_rows(self, updates: Mapping[int, np.ndarray]) -> None:
        """Replace the given adjacency rows and re-prepare the kernel.

        The incremental dynamic-topology path: the CSR arrays are row
        spliced in place of a full per-edge recompile
        (:meth:`~repro.radio.kernels.base.CSRAdjacency.with_row_updates`),
        and only the kernel's cheap array-level ``prepare`` runs again.
        """
        if not updates:
            return
        self.adjacency = self.adjacency.with_row_updates(updates)
        self._kernel_state = SCIPY_KERNEL.prepare(self.adjacency)


@register_engine
class FastRadioNetwork(SlotEngineBase):
    """Batch slot executor, interchangeable with
    :class:`~repro.radio.network.RadioNetwork`.

    Accepts the same constructor arguments and runs the same
    :class:`~repro.radio.device.Device` populations; only the internal
    channel-resolution strategy differs.  Prefer this engine for
    ``n`` in the thousands or dense topologies, where the reference
    engine's per-listener neighbor scans dominate.
    """

    name = "fast"

    def __init__(
        self,
        graph: nx.Graph,
        collision_model: CollisionModel = CollisionModel.NO_CD,
        size_policy: Optional[MessageSizePolicy] = None,
        ledger: Optional[EnergyLedger] = None,
        trace: Optional[EventTrace] = None,
        faults: Optional[FaultModel] = None,
        fault_seed: SeedLike = None,
        dynamic: Optional[DynamicTopology] = None,
        sinr: Optional[SinrParams] = None,
    ) -> None:
        super().__init__(graph, collision_model, size_policy, ledger, trace,
                         faults=faults, fault_seed=fault_seed, dynamic=dynamic,
                         sinr=sinr)
        self._topology = CompiledTopology(graph)
        self._index = self._topology.index
        self.slot_core = SlotCore(
            self._topology.vertices, self._index, self.collision_model,
            self.size_policy, self.sinr, trace,
        )
        # Compiled per-edge gains for SINR arbitration (static topology;
        # the base class rejects dynamic + SINR).
        self._sinr_csr: Optional[SinrCsr] = (
            SinrCsr.compile(
                self._sinr_field, self._topology.adjacency,
                self._topology.vertices,
            )
            if self._sinr_field is not None
            else None
        )

    def _apply_topology_patch(self, patch: TopologyPatch) -> None:
        """Apply one slot's edge diff as an incremental CSR row splice."""
        topology = self._topology
        index = self._index
        rows: Dict[int, Set[int]] = {}

        def row(i: int) -> Set[int]:
            if i not in rows:
                rows[i] = set(topology.adjacency.row(i).tolist())
            return rows[i]

        for u, v in patch.removed:
            iu, iv = index[u], index[v]
            row(iu).remove(iv)
            row(iv).remove(iu)
        for u, v in patch.added:
            iu, iv = index[u], index[v]
            row(iu).add(iv)
            row(iv).add(iu)
        topology.patch_rows({
            i: np.fromiter(sorted(rows[i]), dtype=np.int64, count=len(rows[i]))
            for i in sorted(rows)
        })

    def adjacency_snapshot(self) -> Dict[Hashable, FrozenSet[Hashable]]:
        """The live adjacency as canonical neighbor sets (see base)."""
        adjacency = self._topology.adjacency
        vertices = self._topology.vertices
        return {
            v: frozenset(vertices[j] for j in adjacency.row(i).tolist())
            for i, v in enumerate(vertices)
        }

    def sinr_gain_snapshot(self) -> Optional[Dict[tuple, int]]:
        """Live directed edge->gain table from the *compiled* CSR gains.

        Reads the arrays the engine actually arbitrates with, so the
        invariant checker sees any drift between them and a fresh
        recomputation from the graph (see base class).
        """
        csr = self._sinr_csr
        if csr is None:
            return None
        vertices = self._topology.vertices
        table: Dict[tuple, int] = {}
        for i, u in enumerate(vertices):
            for k in range(int(csr.indptr[i]), int(csr.indptr[i + 1])):
                table[(u, vertices[int(csr.indices[k])])] = int(csr.gains[k])
        return table

    # ------------------------------------------------------------------
    def step(
        self, devices: Union[Mapping[Hashable, Device], SlotPopulation]
    ) -> None:
        """Execute one synchronous slot for a population.

        ``devices`` is a :class:`~repro.radio.population.SlotPopulation`
        (what :meth:`run` passes) or a bare device mapping, whose energy
        is then charged before the slot ends.
        """
        if isinstance(devices, SlotPopulation):
            population = devices
        else:
            population = DevicePopulation(self.slot_core, devices)
        plan = self._next_fault_plan()
        slot = self.slot
        counters = self.fault_counters
        population.collect(slot, plan, counters)
        listen = population.listen_idx
        tx = population.tx_idx
        resolved: Optional[Resolution] = None
        if listen.size and tx.size:
            if self._sinr_csr is None:
                resolved = gathered(listen, *self._topology.counts_codes(tx))
            else:
                resolved = gathered(listen, *sinr_arbitrate(
                    self._sinr_csr, tx, population.tx_levels
                ))
        population.deliver(slot, resolved, counters)
        if population is not devices:
            population.settle(self.ledger)
        self.slot += 1
        self.ledger.advance_time(1)
