"""The Decay protocol: slot-level Local-Broadcast (paper Lemma 2.4).

``Local-Broadcast``: given disjoint sets ``S`` (senders, each holding a
message) and ``R`` (receivers), guarantee that every receiver with at
least one sending neighbor hears *some* neighboring sender's message
with probability ``1 - f``.

Lemma 2.4's implementation (a small modification of Bar-Yehuda,
Goldreich, Itai's Decay algorithm): each sender repeats, for
``O(log 1/f)`` iterations, "pick ``X in [1, log Delta]`` with
``P(X = t) >= 2^-t`` and transmit at step ``X`` of the iteration".
If the number of sending neighbors of a receiver lies in
``[2^{t-1}, 2^t]``, step ``t`` of each iteration delivers with constant
probability.

Costs (matching the lemma): senders spend ``O(log 1/f)`` slots;
receivers that hear a message spend ``O(log Delta)`` slots in
expectation (they stop after the first reception); receivers that hear
nothing spend ``Theta(log Delta log 1/f)`` slots.

Only senders draw randomness.  Spawned from a
:class:`~repro.rng.StreamTree`, receivers and sleepers hold unbuilt
streams and never pay for a Generator.

Two implementations run the same protocol.  On the fast slot tiers
(the serial fast engine and every lane of the batched engines) one
execution is a :class:`DecayPhase`: a per-slot table of sender indices
drawn up front and a mask of still-listening receivers, driven through
the slot cores' population interface
(:class:`~repro.radio.population.SlotPopulation`) with no Python call
per vertex per slot.  The reference engine runs the object roles
(:class:`DecaySender`, :class:`DecayReceiver`, :class:`_SleepingDevice`),
one :class:`~repro.radio.device.Device` per vertex — the independent
oracle the columnar phase is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

import networkx as nx
import numpy as np

from ..errors import MessageTooLargeError, SimulationError
from ..radio.channel import Reception
from ..radio.device import Action, Device
from ..radio.energy import EnergyLedger
from ..radio.engine import Engine, coerce_network
from ..radio.faults import FaultCounters, SlotFaultPlan
from ..radio.message import Message
from ..radio.population import Resolution, SlotCore, SlotPopulation
from ..radio.sinr import check_level
from ..rng import Stream, StreamSeed, built, geometric_decay_slot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..radio.batch_engine import MegaBatchedNetwork, ReplicaBatchedNetwork


@dataclass(frozen=True)
class DecayParameters:
    """Shape of one Decay execution.

    ``window`` is the per-iteration slot count (``ceil(log2 Delta) + 1``)
    and ``iterations`` the repetition count (``ceil(log2 1/f)``, at
    least 1).
    """

    window: int
    iterations: int

    @classmethod
    def for_network(cls, max_degree: int, failure_probability: float) -> "DecayParameters":
        """Derive parameters from ``Delta`` and the target failure prob ``f``."""
        if not (0.0 < failure_probability < 1.0):
            raise ValueError(
                f"failure_probability must be in (0, 1), got {failure_probability}"
            )
        window = max(1, math.ceil(math.log2(max(2, max_degree)))) + 1
        iterations = max(1, math.ceil(math.log2(1.0 / failure_probability)))
        return cls(window=window, iterations=iterations)

    @property
    def total_slots(self) -> int:
        """Wall-clock length of the protocol in slots."""
        return self.window * self.iterations


class DecaySender(Device):
    """Sender role: transmit at a geometric slot in each iteration.

    ``start_slot`` anchors the protocol to the network's current clock,
    so repeated Decay executions on one long-lived network line up (the
    slot argument passed by the executor is absolute).  ``power`` sets
    the sender's standing transmit power level (an index into the SINR
    power ladder; ignored by the binary collision models).
    """

    def __init__(
        self,
        vertex: Hashable,
        rng: Stream,
        message: Message,
        params: DecayParameters,
        start_slot: int = 0,
        power: int = 0,
    ) -> None:
        super().__init__(vertex, rng)
        self.power_level = power
        self.message = message
        self.params = params
        self.start_slot = start_slot
        self._end_slot = start_slot + params.total_slots
        self._slots: Set[int] = set()
        rng = self.rng
        for it in range(params.iterations):
            offset = geometric_decay_slot(rng, params.window) - 1
            self._slots.add(it * params.window + offset)

    def step(self, slot: int) -> Action:
        if slot >= self._end_slot:
            self.halted = True
            return Action.idle()
        if slot - self.start_slot in self._slots:
            return Action.transmit(self.message)
        return Action.idle()


class DecayReceiver(Device):
    """Receiver role: listen until first reception (or protocol end)."""

    def __init__(
        self,
        vertex: Hashable,
        rng: Stream,
        params: DecayParameters,
        start_slot: int = 0,
    ) -> None:
        super().__init__(vertex, rng)
        self.params = params
        self.start_slot = start_slot
        self._end_slot = start_slot + params.total_slots
        self.received: Optional[Message] = None

    def step(self, slot: int) -> Action:
        if slot >= self._end_slot or self.received is not None:
            self.halted = True
            return Action.idle()
        return Action.listen()

    def receive(self, slot: int, reception: Reception) -> None:
        if reception.received:
            self.received = reception.message

    def output(self) -> Optional[Message]:
        return self.received


class _SleepingDevice(Device):
    """Non-participant: sleeps for the whole protocol (zero energy)."""

    def __init__(self, vertex: Hashable, rng: Stream) -> None:
        super().__init__(vertex, rng)
        self.halted = True


class DecayPhase(SlotPopulation):
    """One Decay execution as array state: the columnar population.

    Built on a fast tier's :class:`~repro.radio.population.SlotCore`:

    - **senders** are index arrays: each sender builds its Generator from
      its own stream and draws its ``iterations`` transmit slots up front
      (one :func:`~repro.rng.geometric_decay_slot` per iteration, in
      iteration order — exactly what :class:`DecaySender` draws), into a
      table of sender indices per slot, ascending within a slot;
    - **receivers** are an array of still-listening indices that loses a
      receiver on its first delivery — a :class:`DecayReceiver` halts
      right after its first reception;
    - a slot is a table lookup, the tier's kernel call, and a mask update.

    Faults act as on the object roles: dead vertices neither act nor pay
    (a dead receiver keeps listening afterwards), dropped senders pay and
    are traced but stay off the channel, jammed listeners pay, are
    counted and keep listening.  The first transmission checks every
    transmitter's message size and, under SINR, the standing power
    level, raising what the first offending :class:`DecaySender` would.
    Receivers and non-participants never build a Generator.
    """

    def __init__(
        self,
        core: SlotCore,
        streams: Mapping[Hashable, Stream],
        messages: Mapping[Hashable, Message],
        receivers: Set[Hashable],
        params: DecayParameters,
        start_slot: int,
        power: int,
    ) -> None:
        super().__init__(core)
        index = core.index
        vertices = core.vertices
        self.start_slot = start_slot
        self.power = power
        self.receivers = receivers
        #: ``{receiver: message}`` for every receiver that heard one.
        self.heard: Dict[Hashable, Message] = {}
        senders = sorted(index[v] for v in messages if v in index)
        self._msgs: Dict[int, Message] = {}
        self._oversized = False
        for i in senders:
            message = messages[vertices[i]]
            if message is None:
                raise ValueError("transmit requires a message")
            self._msgs[i] = message
            try:
                core.size_policy.check(message)
            except MessageTooLargeError:
                self._oversized = True
        window, iterations = params.window, params.iterations
        offsets: List[int] = []
        for i in senders:
            rng = built(streams[vertices[i]])
            for it in range(iterations):
                offsets.append(it * window + geometric_decay_slot(rng, window) - 1)
        slots = np.asarray(offsets, dtype=np.int64)
        order = np.argsort(slots, kind="stable")
        self._table = np.repeat(
            np.asarray(senders, dtype=np.int64), iterations
        )[order]
        self._bounds: List[int] = np.searchsorted(
            slots[order], np.arange(params.total_slots + 1)
        ).tolist()
        self._active = np.asarray(
            sorted(index[v] for v in receivers), dtype=np.int64
        )
        self._done = np.zeros(core.n, dtype=bool)
        self._idle = not senders and not receivers
        # Until the first transmission has been checked (and for as long
        # as some sender holds an oversized message), transmissions are
        # validated one by one.
        self._unchecked = True
        self._cost = 1
        if core.sinr is not None:
            try:
                self._cost = core.sinr.power_costs[
                    check_level(power, None, core.sinr)
                ]
            except SimulationError:
                pass  # raised by the first transmission instead
        # Energy is booked lazily: each slot run since the last settle
        # charges its scheduled senders and every receiver still
        # listening; the exceptions (dead vertices, receivers that stop
        # on a delivery) are booked as they happen.
        self._ran = 0
        self._settled = 0
        self._jammed: Optional[np.ndarray] = None

    def halted(self) -> bool:
        # Senders act until the protocol's last slot, so the object roles
        # all halt early only when there is nobody to run.
        return self._idle

    def output(self) -> Dict[Hashable, Message]:
        """``{receiver: message}``, in the receiver set's order."""
        heard = self.heard
        return {v: heard[v] for v in self.receivers if v in heard}

    def _mask(self, members: Iterable[Hashable]) -> np.ndarray:
        index = self.core.index
        mask = np.zeros(self.core.n, dtype=bool)
        mask[[index[v] for v in members if v in index]] = True
        return mask

    def _check(self, tx: np.ndarray) -> None:
        core = self.core
        sinr = core.sinr
        for i in tx.tolist():
            core.size_policy.check(self._msgs[i])
            if sinr is not None:
                check_level(self.power, core.vertices[i], sinr)
        self._unchecked = self._oversized

    def collect(
        self, slot: int, plan: Optional[SlotFaultPlan], counters: FaultCounters
    ) -> None:
        core = self.core
        bounds = self._bounds
        t = slot - self.start_slot
        self._ran = t + 1
        tx = self._table[bounds[t]:bounds[t + 1]]
        listen = self._active
        jammed: Optional[np.ndarray] = None
        if plan is not None and plan.dead:
            dead = self._mask(plan.dead)
            gone = dead[tx]
            if gone.any():
                self.tx_counts[tx[gone]] -= self._cost
                tx = tx[~gone]
            gone = dead[listen]
            if gone.any():
                self.listen_counts[listen[gone]] -= 1
                listen = listen[~gone]
        if tx.size:
            if self._unchecked:
                self._check(tx)
            trace = core.trace
            if trace is not None:
                vertices = core.vertices
                suffix = "" if core.sinr is None else f"/p{self.power}"
                for i in tx.tolist():
                    trace.record(
                        slot, "transmit", vertices[i],
                        self._msgs[i].kind + suffix,
                    )
            if plan is not None and plan.dropped:
                dropped = self._mask(plan.dropped)[tx]
                lost = int(np.count_nonzero(dropped))
                if lost:
                    counters.dropped += lost
                    tx = tx[~dropped]
        if listen.size and plan is not None and plan.jammed:
            jam = self._mask(plan.jammed)[listen]
            if jam.any():
                jammed = jam
        self._jammed = jammed
        self.tx_idx = tx
        self.listen_idx = listen
        if core.sinr is not None:
            self.tx_levels = np.full(tx.size, self.power, dtype=np.int64)

    def deliver(
        self, slot: int, resolved: Optional[Resolution], counters: FaultCounters
    ) -> None:
        jammed = self._jammed
        if jammed is not None:
            counters.jammed += int(np.count_nonzero(jammed))
        if resolved is None:
            return
        _, codes, ok = resolved
        if jammed is not None:
            ok = ok & ~jammed
        hit = ok.nonzero()[0]
        if not hit.size:
            return
        got = self.listen_idx[hit]
        counters.delivered += int(hit.size)
        # They listened through this slot and stop now.
        self.listen_counts[got] += slot - self.start_slot + 1 - self._settled
        heard = self.heard
        msgs = self._msgs
        vertices = self.core.vertices
        trace = self.core.trace
        for i, code in zip(got.tolist(), codes[hit].tolist()):
            message = msgs[code - 1]
            heard[vertices[i]] = message
            if trace is not None:
                trace.record(slot, "receive", vertices[i], message.kind)
        done = self._done
        done[got] = True
        self._active = self._active[~done[self._active]]

    def settle(self, ledger: EnergyLedger) -> None:
        pending = self._ran - self._settled
        if pending:
            bounds = self._bounds
            sent = self._table[bounds[self._settled]:bounds[self._ran]]
            if sent.size:
                self.tx_counts += self._cost * np.bincount(
                    sent, minlength=self.core.n
                )
            self.listen_counts[self._active] += pending
            self._settled = self._ran
        super().settle(ledger)


def _disjoint(
    messages: Mapping[Hashable, Message], receivers: Iterable[Hashable]
) -> Set[Hashable]:
    """The receiver set, checked disjoint from the senders."""
    receiver_set = set(receivers)
    overlap = set(messages) & receiver_set
    if overlap:
        raise ValueError(f"senders and receivers must be disjoint; overlap={overlap}")
    return receiver_set


def _stream(vertex: Hashable, stream: Stream) -> Stream:
    """Spawn factory of a columnar phase: every vertex keeps its stream
    as spawned (unbuilt, from a tree); only senders build theirs."""
    return stream


def _phase(
    network,
    messages: Mapping[Hashable, Message],
    receivers: Iterable[Hashable],
    params: DecayParameters,
    start_slot: int,
    power: int,
    seed: StreamSeed,
) -> DecayPhase:
    """One columnar Decay execution on a fast tier's ``network`` (a
    serial engine or a batched member), its streams spawned exactly as
    the object roles' would be."""
    receiver_set = _disjoint(messages, receivers)
    streams = network.spawn_devices(_stream, seed=seed)
    return DecayPhase(
        network.slot_core, streams, messages, receiver_set, params,
        start_slot, power,
    )


def _run_object_roles(
    network: Engine,
    messages: Mapping[Hashable, Message],
    receiver_set: Set[Hashable],
    params: DecayParameters,
    seed: StreamSeed,
    power: int,
) -> Dict[Hashable, Message]:
    """One Decay execution as one Device per vertex (reference engine)."""
    start_slot = network.slot

    def factory(vertex: Hashable, rng: Stream) -> Device:
        if vertex in messages:
            return DecaySender(
                vertex, rng, messages[vertex], params, start_slot, power=power,
            )
        if vertex in receiver_set:
            return DecayReceiver(vertex, rng, params, start_slot)
        return _SleepingDevice(vertex, rng)

    devices = network.spawn_devices(factory, seed=seed)
    network.run(devices, max_slots=params.total_slots)
    results: Dict[Hashable, Message] = {}
    for v in receiver_set:
        out = devices[v].output()
        if out is not None:
            results[v] = out
    return results


def run_decay_local_broadcast(
    network: Union[nx.Graph, Engine],
    messages: Mapping[Hashable, Message],
    receivers: Iterable[Hashable],
    failure_probability: float = 1e-3,
    seed: StreamSeed = None,
    engine: Optional[str] = None,
    tx_power: int = 0,
) -> Dict[Hashable, Message]:
    """Execute one slot-level Local-Broadcast on ``network``.

    ``network`` may be an already-constructed slot engine, or a bare
    ``networkx`` graph together with an ``engine`` name
    (``"reference"``/``"fast"``) — the engine is then built via
    :func:`~repro.radio.engine.make_network`.  ``tx_power`` is the
    senders' standing SINR power level (ignored by the binary collision
    models).  The fast engine runs the execution as a columnar
    :class:`DecayPhase`; the reference engine as one object role per
    vertex.

    Returns ``{receiver: message}`` for every receiver that heard one.
    Senders and receivers must be disjoint; all other vertices sleep.
    ``seed`` is a plain seed or the :class:`~repro.rng.StreamTree` a
    multi-phase caller threads across its phases (see
    :func:`~repro.radio.network.spawn_device_map`).
    """
    network = coerce_network(network, engine)
    params = DecayParameters.for_network(network.max_degree, failure_probability)
    if getattr(network, "slot_core", None) is None:
        return _run_object_roles(
            network, messages, _disjoint(messages, receivers), params, seed,
            tx_power,
        )
    phase = _phase(
        network, messages, receivers, params, network.slot, tx_power, seed
    )
    network.run(phase, max_slots=params.total_slots)
    return phase.output()


def run_decay_local_broadcast_batch(
    network: "ReplicaBatchedNetwork",
    rounds: Mapping[int, Tuple[Mapping[Hashable, Message], Iterable[Hashable]]],
    failure_probability: float = 1e-3,
    seeds: Optional[Mapping[int, StreamSeed]] = None,
    tx_power: int = 0,
) -> Dict[int, Dict[Hashable, Message]]:
    """One Decay Local-Broadcast per replica lane, in lockstep.

    ``rounds`` maps a lane index of ``network`` (a
    :class:`~repro.radio.batch_engine.ReplicaBatchedNetwork`) to that
    lane's ``(messages, receivers)`` round; ``seeds`` optionally maps
    lane index to the lane's protocol stream.  Every lane executes the
    standard :func:`run_decay_local_broadcast` — same parameters (the
    topology, and hence ``Delta``, is shared), same phase, same per-lane
    randomness — but all lanes advance through the protocol's slots
    together, one fused kernel call per slot.

    Returns ``{lane: {receiver: message}}`` for every lane, exactly the
    per-lane result the serial primitive would have produced.
    """
    seeds = seeds or {}
    params = DecayParameters.for_network(network.max_degree, failure_probability)
    phases: Dict[int, DecayPhase] = {}
    for lane_index in sorted(rounds):
        messages, receivers = rounds[lane_index]
        phases[lane_index] = _phase(
            network, messages, receivers, params,
            network.lane(lane_index).slot, tx_power, seeds.get(lane_index),
        )
    network.run_lockstep(phases, max_slots=params.total_slots)
    return {lane: phase.output() for lane, phase in phases.items()}


def run_decay_local_broadcast_mega(
    network: "MegaBatchedNetwork",
    rounds: Mapping[
        Tuple[int, int],
        Tuple[Mapping[Hashable, Message], Iterable[Hashable]],
    ],
    failure_probability: Union[float, Mapping[int, float]] = 1e-3,
    seeds: Optional[Mapping[Tuple[int, int], StreamSeed]] = None,
    tx_power: Union[int, Mapping[int, int]] = 0,
) -> Dict[Tuple[int, int], Dict[Hashable, Message]]:
    """One Decay Local-Broadcast per lane, fused across *members*.

    The heterogeneous sibling of :func:`run_decay_local_broadcast_batch`:
    ``rounds`` maps a ``(member, replica)`` lane key of a
    :class:`~repro.radio.batch_engine.MegaBatchedNetwork` to that lane's
    ``(messages, receivers)`` round.  Each member derives its **own**
    :class:`DecayParameters` from its own ``Delta`` (and its own target
    failure probability, when ``failure_probability`` maps member index
    to ``f``), so lanes of different members run protocols of different
    lengths — the per-lane slot budgets passed to
    :meth:`~repro.radio.batch_engine.MegaBatchedNetwork.run_lockstep`
    retire each lane exactly when its own serial protocol would end.

    Returns ``{(member, replica): {receiver: message}}``, each lane's
    mapping byte-identical to its serial
    :func:`run_decay_local_broadcast` run.
    """
    seeds = seeds or {}
    params_by_member: Dict[int, DecayParameters] = {}
    phases: Dict[Tuple[int, int], DecayPhase] = {}
    budgets: Dict[Tuple[int, int], int] = {}
    for key in sorted(rounds):
        member_index, _ = key
        member = network.member(member_index)
        if member_index not in params_by_member:
            f = (
                failure_probability
                if isinstance(failure_probability, float)
                else failure_probability[member_index]
            )
            params_by_member[member_index] = DecayParameters.for_network(
                member.max_degree, f
            )
        params = params_by_member[member_index]
        power = (
            tx_power
            if isinstance(tx_power, int)
            else tx_power.get(member_index, 0)
        )
        messages, receivers = rounds[key]
        phases[key] = _phase(
            member, messages, receivers, params, network.lane(key).slot,
            power, seeds.get(key),
        )
        budgets[key] = params.total_slots

    network.run_lockstep(phases, max_slots=budgets)
    return {key: phase.output() for key, phase in phases.items()}
