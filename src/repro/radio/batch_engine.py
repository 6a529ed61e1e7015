"""Replica-batched slot execution: R seeds per kernel call.

The dominant workload of this repo is sweeps over many seeds of the
*same* (topology, algorithm, faults) cell — every result in the paper
is a statement about distributions over random coin flips.  The
single-replica engines pay one topology build, one CSR compile, and one
kernel call per slot **per seed**; :class:`ReplicaBatchedNetwork`
amortizes all three by advancing ``R`` independent replicas of one
topology in lockstep:

- the topology is compiled once
  (:class:`~repro.radio.fast_engine.CompiledTopology`) and shared by
  every replica lane;
- each slot, every lane's population
  (:class:`~repro.radio.population.SlotPopulation` — a columnar Decay
  phase, or device objects) collects its transmitters and listeners,
  and all lanes are resolved against the shared adjacency with **one**
  kernel call
  (:meth:`~repro.radio.fast_engine.CompiledTopology.counts_codes_many`)
  — per-lane counts and sender codes come back exactly as the fast
  engine would have computed them one replica at a time;
- each lane keeps fully private state: its own population, its
  own :class:`~repro.radio.energy.EnergyLedger`, its own fault stream
  (via :class:`~repro.radio.faults.ReplicaFaultRuntimes`), its own
  collision resolution, and its own slot clock.

Bit-identity contract
---------------------
A replica lane produces **byte-identical** results to the same seed
executed alone on either serial engine: identical executed slot
counts, per-device energy counters, fault counters, and delivered
messages.  Nothing about a lane's randomness, fault draws, or channel
outcomes depends on any other lane — batching is purely an execution
strategy (enforced by ``tests/radio/test_batch_engine.py`` and
``tests/experiments/test_batch_equivalence.py``).

Lanes do not all have to run at once:
:meth:`ReplicaBatchedNetwork.run_lockstep` advances
whichever subset of lanes the caller supplies populations for, so a
multi-phase protocol (e.g. the batched Decay-BFS of
:func:`repro.core.simple_bfs.decay_bfs_batch`) keeps only its
still-active replicas in the product as wavefronts finish at different
depths.

:class:`MegaBatchedNetwork` goes one step further: several
replica-batched members with **different** topologies are packed into a
block-diagonal :class:`~repro.radio.kernels.megabatch.MegaBatchPlan`,
so heterogeneous sweep cells share one kernel call per slot — the
same bit-identity contract, across mixed topologies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
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

from ..errors import ConfigurationError
from ..rng import SeedLike, Stream, StreamSeed
from .channel import CollisionModel
from .device import Device
from .energy import EnergyLedger
from .fast_engine import CompiledTopology
from .faults import FaultCounters, FaultModel, ReplicaFaultRuntimes
from .kernels import MegaBatchPlan
from .kernels.sinr_csr import SinrCsr, sinr_arbitrate_many
from .message import MessageSizePolicy
from .network import (
    spawn_device_map,
    validate_population,
    validate_topology,
)
from .population import (
    DevicePopulation,
    Resolution,
    SlotCore,
    SlotPopulation,
    gathered,
)
from .sinr import SinrField, SinrParams, coerce_sinr_params


@dataclass
class ReplicaLane:
    """The per-replica slice of a :class:`ReplicaBatchedNetwork`.

    Everything a single serial engine would own per run lives here:
    the energy ledger, the fault/delivery counters, and the slot clock.
    Exposes the same ``slot``/``ledger``/``fault_counters`` attributes
    the :class:`~repro.radio.engine.Engine` protocol names, so the
    experiment layer can read a lane exactly like a network.
    """

    index: int
    ledger: EnergyLedger
    fault_counters: FaultCounters = field(default_factory=FaultCounters)
    slot: int = 0


class _LaneRun:
    """Mutable per-lane state for one ``run_lockstep`` call."""

    __slots__ = ("lane", "population", "executed", "resolved")

    def __init__(self, lane: ReplicaLane, population: SlotPopulation) -> None:
        self.lane = lane
        self.population = population
        self.executed = 0
        # This slot's channel outcome at the population's listeners.
        self.resolved: Optional[Resolution] = None


class ReplicaBatchedNetwork:
    """R replica lanes of one topology, one kernel call per slot.

    Parameters
    ----------
    graph:
        The shared communication topology (one compile serves every
        lane).
    replicas:
        Number of independent replica lanes.
    collision_model, size_policy:
        Channel semantics, shared by all lanes (replicas of one spec
        always agree on these).
    ledgers:
        One :class:`EnergyLedger` per lane; fresh ledgers are created
        when omitted.
    faults:
        Optional shared :class:`~repro.radio.faults.FaultModel`; each
        lane draws from its *own* ``fault_seeds`` stream, so the same
        model meets per-replica randomness exactly as in serial runs.
    fault_seeds:
        One dedicated fault stream (or seed) per lane; defaults to
        ``None`` per lane.
    sinr:
        Optional :class:`~repro.radio.sinr.SinrParams` (or preset name /
        mapping), exactly as on the serial engines: required context for
        ``CollisionModel.SINR`` (defaults apply when omitted), rejected
        for the binary models.  The per-edge gain field is compiled once
        and shared by every lane.
    """

    name = "fast-batch"

    def __init__(
        self,
        graph: nx.Graph,
        replicas: int,
        collision_model: CollisionModel = CollisionModel.NO_CD,
        size_policy: Optional[MessageSizePolicy] = None,
        ledgers: Optional[Sequence[EnergyLedger]] = None,
        faults: Optional[FaultModel] = None,
        fault_seeds: Optional[Sequence[SeedLike]] = None,
        sinr: Union[None, str, Mapping, SinrParams] = None,
    ) -> None:
        validate_topology(graph)
        if not isinstance(replicas, int) or isinstance(replicas, bool) or replicas < 1:
            raise ConfigurationError(
                f"replicas must be a positive int, got {replicas!r}"
            )
        self.graph = graph
        self.replicas = replicas
        if not isinstance(collision_model, CollisionModel):
            try:
                collision_model = CollisionModel(collision_model)
            except ValueError:
                raise ConfigurationError(
                    f"unknown collision model {collision_model!r}; known: "
                    f"{', '.join(m.value for m in CollisionModel)}"
                ) from None
        self.collision_model = collision_model
        self.size_policy = size_policy or MessageSizePolicy.unbounded()
        self._topology = CompiledTopology(graph)
        self._node_set: Set[Hashable] = set(graph.nodes)
        sinr_params = coerce_sinr_params(sinr)
        if collision_model is CollisionModel.SINR:
            if sinr_params is None:
                sinr_params = SinrParams()
        elif sinr_params is not None:
            raise ConfigurationError(
                "sinr params require collision_model=CollisionModel.SINR, "
                f"got {collision_model.value!r}"
            )
        self.sinr = sinr_params
        self._sinr_csr: Optional[SinrCsr] = (
            SinrCsr.compile(
                SinrField(graph, sinr_params),
                self._topology.adjacency,
                self._topology.vertices,
            )
            if sinr_params is not None
            else None
        )
        if ledgers is None:
            ledgers = [EnergyLedger() for _ in range(replicas)]
        elif len(ledgers) != replicas:
            raise ConfigurationError(
                f"need one ledger per replica: got {len(ledgers)} "
                f"for {replicas} replicas"
            )
        if fault_seeds is None:
            fault_seeds = [None] * replicas
        elif len(fault_seeds) != replicas:
            raise ConfigurationError(
                f"need one fault seed per replica: got {len(fault_seeds)} "
                f"for {replicas} replicas"
            )
        self.lanes: List[ReplicaLane] = [
            ReplicaLane(index=r, ledger=ledgers[r]) for r in range(replicas)
        ]
        self._fault_runtimes = ReplicaFaultRuntimes(
            faults, graph, seeds=list(fault_seeds),
            counters=[lane.fault_counters for lane in self.lanes],
        )
        #: What every lane's population acts against (lanes keep no
        #: event trace).
        self.slot_core = SlotCore(
            self._topology.vertices, self._topology.index,
            collision_model, self.size_policy, sinr_params, None,
        )

    # ------------------------------------------------------------------
    def lane(self, replica: int) -> ReplicaLane:
        """The per-replica state slice (ledger, counters, slot clock)."""
        return self.lanes[replica]

    @property
    def max_degree(self) -> int:
        """Maximum degree of the shared topology (the Delta of Lemma 2.4)."""
        return int(np.diff(self._topology.adjacency.indptr).max())

    def spawn_devices(
        self,
        factory: Callable[[Hashable, Stream], Device],
        seed: StreamSeed = None,
    ) -> Dict[Hashable, Device]:
        """Instantiate one device per vertex with independent RNG streams.

        Same shared derivation as
        :meth:`~repro.radio.network.SlotEngineBase.spawn_devices`
        (:func:`~repro.radio.network.spawn_device_map`): pass a lane's
        protocol stream as ``seed`` and the lane's devices draw exactly
        the randomness its serial run would.
        """
        return spawn_device_map(self._topology.vertices, factory, seed)

    # ------------------------------------------------------------------
    def _lane_run(
        self,
        replica: int,
        devices: Union[Mapping[Hashable, Device], SlotPopulation],
    ) -> _LaneRun:
        """One lane's run state; a device mapping gets the serial
        engines' exact-cover validation and becomes a
        :class:`~repro.radio.population.DevicePopulation`."""
        if not isinstance(replica, int) or not (0 <= replica < self.replicas):
            raise ConfigurationError(
                f"unknown replica lane {replica!r}; "
                f"this network has {self.replicas} lanes"
            )
        if not isinstance(devices, SlotPopulation):
            validate_population(self._node_set, devices)
            devices = DevicePopulation(self.slot_core, devices)
        return _LaneRun(self.lanes[replica], devices)

    def run_lockstep(
        self,
        populations: Mapping[
            int, Union[Mapping[Hashable, Device], SlotPopulation]
        ],
        max_slots: int,
    ) -> Dict[int, int]:
        """Advance every supplied lane for up to ``max_slots`` slots.

        ``populations`` maps lane index -> that lane's device mapping
        (exact vertex cover, as on the serial engines) or columnar
        population (a Decay phase).  Per slot, every still-running lane
        collects its actions, all lanes' channels are resolved with one
        fused kernel call, and each lane's receptions are dispatched
        with its own collision model outcome.  A lane stops early when
        its population has halted — exactly the serial ``run`` loop's
        stop rule, applied per lane — without holding up the others.
        Returns the executed slot count per lane.
        """
        states = [
            self._lane_run(replica, populations[replica])
            for replica in sorted(populations)
        ]
        running = [s for s in states if not s.population.halted()]
        for _ in range(max_slots):
            if not running:
                break
            self._step_all(running)
            for s in running:
                s.executed += 1
                s.lane.slot += 1
            running = [s for s in running if not s.population.halted()]
        for s in states:
            s.population.settle(s.lane.ledger)
            s.lane.ledger.advance_time(s.executed)
        return {s.lane.index: s.executed for s in states}

    # ------------------------------------------------------------------
    def _step_all(self, running: List[_LaneRun]) -> None:
        """Execute one synchronous slot across all running lanes."""
        self._collect_actions(running)
        # One fused kernel call covering every lane that has both
        # transmitters and listeners this slot: the counts/codes
        # kernel for the binary models, fused SINR arbitration (same
        # block-diagonal trick) otherwise.
        need = [
            s for s in running
            if s.population.listen_idx.size and s.population.tx_idx.size
        ]
        if need:
            if self._sinr_csr is None:
                resolved: List[Tuple[np.ndarray, ...]] = (
                    self._topology.counts_codes_many(
                        [s.population.tx_idx for s in need]
                    )
                )
            else:
                csr = self._sinr_csr
                resolved = sinr_arbitrate_many([
                    (csr, s.population.tx_idx, s.population.tx_levels)
                    for s in need
                ])
            for s, full in zip(need, resolved):
                s.resolved = gathered(s.population.listen_idx, *full)
        self._dispatch(running)

    def _collect_actions(self, running: List[_LaneRun]) -> None:
        """Phase A of a slot: each lane's population collects its
        transmitters and listeners under the lane's own fault plan."""
        for s in running:
            lane = s.lane
            s.population.collect(
                lane.slot,
                self._fault_runtimes.plan(lane.index, lane.slot),
                lane.fault_counters,
            )

    def _dispatch(self, running: List[_LaneRun]) -> None:
        """Phase C of a slot: each lane's population takes its channel
        outcome (``resolved`` for lanes the kernel resolved, silence
        or jams for the rest)."""
        for s in running:
            s.population.deliver(s.lane.slot, s.resolved, s.lane.fault_counters)
            s.resolved = None


#: A mega lane key: (member index, replica lane index within member).
MegaLaneKey = Tuple[int, int]


class MegaBatchedNetwork:
    """Heterogeneous members, one block-diagonal kernel call per slot.

    Where :class:`ReplicaBatchedNetwork` fuses lanes sharing **one**
    topology, this executor packs several replica-batched *members* —
    each with its own topology, collision model, fault model, and lane
    set — into a single
    :class:`~repro.radio.kernels.megabatch.MegaBatchPlan`, so every
    running lane of every member joins the same kernel call each
    slot.  Per-lane semantics are untouched: populations, fault draws,
    energy charging, and collision outcomes all run through the
    member's own machinery (:meth:`ReplicaBatchedNetwork._collect_actions`
    / :meth:`ReplicaBatchedNetwork._dispatch`), and each lane is
    resolved over its own member's block exactly (see
    :mod:`repro.radio.kernels.megabatch`), so each lane stays
    **byte-identical** to its own serial run — the same contract as
    replica batching, now across mixed topologies.

    Because members generally have different Decay parameter budgets
    (different max degrees), :meth:`run_lockstep` accepts either a
    single slot budget or one per lane.
    """

    name = "mega-batch"

    def __init__(self, members: Sequence[ReplicaBatchedNetwork]) -> None:
        if not members:
            raise ConfigurationError(
                "MegaBatchedNetwork requires at least one member network"
            )
        self.members: List[ReplicaBatchedNetwork] = list(members)
        self._plan = MegaBatchPlan([m._topology.adjacency for m in self.members])

    # ------------------------------------------------------------------
    def member(self, index: int) -> ReplicaBatchedNetwork:
        """The member network at ``index`` (its lanes, topology, faults)."""
        return self.members[index]

    def lane(self, key: MegaLaneKey) -> ReplicaLane:
        """The per-lane state slice for ``(member, replica)``."""
        member, replica = key
        return self.members[member].lane(replica)

    def _check_key(self, key: MegaLaneKey) -> None:
        if (
            not isinstance(key, tuple) or len(key) != 2
            or not isinstance(key[0], int) or isinstance(key[0], bool)
        ):
            raise ConfigurationError(
                f"mega lane keys are (member, replica) int pairs; got {key!r}"
            )
        if not 0 <= key[0] < len(self.members):
            raise ConfigurationError(
                f"unknown member {key[0]!r}; "
                f"this network has {len(self.members)} members"
            )

    # ------------------------------------------------------------------
    def run_lockstep(
        self,
        populations: Mapping[
            MegaLaneKey, Union[Mapping[Hashable, Device], SlotPopulation]
        ],
        max_slots: Union[int, Mapping[MegaLaneKey, int]],
    ) -> Dict[MegaLaneKey, int]:
        """Advance every supplied lane, fusing all members per slot.

        ``populations`` maps ``(member, replica)`` -> that lane's device
        mapping (exact vertex cover of the member's topology) or
        columnar population.
        ``max_slots`` is either one budget for every lane or a mapping
        with one budget per supplied lane — lanes retire individually
        when their budget is spent or their population halts, exactly
        as in per-member :meth:`ReplicaBatchedNetwork.run_lockstep`
        calls.  Returns the executed slot count per lane key.
        """
        if isinstance(max_slots, int) and not isinstance(max_slots, bool):
            budgets = {key: max_slots for key in populations}
        else:
            try:
                budgets = {key: int(max_slots[key]) for key in populations}
            except KeyError as exc:
                raise ConfigurationError(
                    f"max_slots mapping is missing a budget for lane "
                    f"{exc.args[0]!r}"
                ) from None
        # records: (member index, per-call lane state, budget)
        records: Dict[MegaLaneKey, Tuple[int, _LaneRun, int]] = {}
        for key in sorted(populations):
            self._check_key(key)
            member_idx, replica = key
            state = self.members[member_idx]._lane_run(
                replica, populations[key]
            )
            records[key] = (member_idx, state, budgets[key])
        running = [
            r for r in records.values()
            if r[2] > 0 and not r[1].population.halted()
        ]
        while running:
            by_member: Dict[int, List[_LaneRun]] = {}
            for member_idx, state, _ in running:
                by_member.setdefault(member_idx, []).append(state)
            for member_idx, states in by_member.items():
                self.members[member_idx]._collect_actions(states)
            # One block-diagonal kernel call for every lane, of every
            # member, that has both transmitters and listeners.
            # SINR members take the fused arbitration kernel instead
            # (its own block-diagonal pass over all such lanes).
            binary_need: List[Tuple[int, SlotPopulation, _LaneRun]] = []
            sinr_need: List[Tuple[SinrCsr, SlotPopulation, _LaneRun]] = []
            for member_idx, state, _ in running:
                population = state.population
                if population.listen_idx.size and population.tx_idx.size:
                    csr = self.members[member_idx]._sinr_csr
                    if csr is None:
                        binary_need.append((member_idx, population, state))
                    else:
                        sinr_need.append((csr, population, state))
            if binary_need:
                resolved = self._plan.counts_codes_many(
                    [(m, population.tx_idx) for m, population, _ in binary_need]
                )
                for (_, population, state), pair in zip(binary_need, resolved):
                    state.resolved = gathered(population.listen_idx, *pair)
            if sinr_need:
                arbitrated = sinr_arbitrate_many([
                    (csr, population.tx_idx, population.tx_levels)
                    for csr, population, _ in sinr_need
                ])
                for (_, population, state), triple in zip(sinr_need, arbitrated):
                    state.resolved = gathered(population.listen_idx, *triple)
            for member_idx, states in by_member.items():
                self.members[member_idx]._dispatch(states)
            still_running = []
            for record in running:
                _, state, budget = record
                state.executed += 1
                state.lane.slot += 1
                if state.executed < budget and not state.population.halted():
                    still_running.append(record)
            running = still_running
        for _, state, _ in records.values():
            state.population.settle(state.lane.ledger)
            state.lane.ledger.advance_time(state.executed)
        return {key: state.executed for key, (_, state, _) in records.items()}
