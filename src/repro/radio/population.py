"""Slot populations: what the fast slot cores drive, one slot at a time.

Every fast slot core — :meth:`FastRadioNetwork.step
<repro.radio.fast_engine.FastRadioNetwork.step>` and each lane of the
batched engines (:mod:`repro.radio.batch_engine`) — runs a slot in the
same three moves against a :class:`SlotPopulation`:

1. :meth:`~SlotPopulation.collect`: the population decides who acts
   this slot under the slot's fault plan.  It leaves the transmitters
   that reach the channel in ``tx_idx`` (their SINR power levels in
   ``tx_levels``) and the listeners in ``listen_idx``, accumulates the
   energy of everyone who acted (dropped transmitters included), counts
   drops, and records the transmit trace events;
2. the core resolves the channel at the listeners (one kernel call, or
   one fused call across lanes) and gathers it with :func:`gathered`;
3. :meth:`~SlotPopulation.deliver`: the population takes the outcome —
   deliveries, jams, silence or noise — and records receive events.

:meth:`~SlotPopulation.settle` flushes the accumulated energy into a
ledger.  There are two implementations:

- :class:`DevicePopulation` — the object implementation: one
  :class:`~repro.radio.device.Device` per vertex, a ``step`` and a
  ``receive`` callback per acting device per slot; it keeps a pruned
  list of live devices, so halted devices cost nothing.  Every
  slot-level protocol runs through it.
- :class:`repro.primitives.decay.DecayPhase` — the array implementation
  of one Decay Local-Broadcast (paper Lemma 2.4): a per-slot sender
  table and a receiver mask, no Python call per vertex.

The reference :class:`~repro.radio.network.RadioNetwork` resolves its
slots from the devices directly and only borrows
:class:`DevicePopulation`'s halting rule, so it stays an independent
oracle for both implementations.
"""

from __future__ import annotations

from typing import Hashable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from .channel import CollisionModel, Feedback, Reception
from .device import ActionKind, Device
from .energy import EnergyLedger
from .faults import FaultCounters, SlotFaultPlan
from .message import Message, MessageSizePolicy
from .sinr import SinrParams, transmit_level
from .trace import EventTrace

# Non-delivery receptions carry no message, so one frozen instance per
# feedback kind can be shared across all listeners and slots.
_NOTHING = Reception(Feedback.NOTHING)
_SILENCE = Reception(Feedback.SILENCE)
_NOISE = Reception(Feedback.NOISE)

_NO_INDICES = np.zeros(0, dtype=np.int64)

#: A slot's channel outcome at the listeners, aligned with
#: ``listen_idx``: transmitting-neighbor counts, sender codes (the
#: deliverer's vertex index plus one where ``deliver``), and whether
#: the listener decodes a message.
Resolution = Tuple[np.ndarray, np.ndarray, np.ndarray]


def jam_reception_for(collision_model: CollisionModel) -> Reception:
    """The channel outcome a jammed listener perceives.

    Indistinguishable from a collision under the active collision model
    (``NOISE`` with receiver-side CD or SINR, ``NOTHING`` without CD);
    shared by every executor tier so jam semantics stay
    engine-independent.
    """
    return _NOTHING if collision_model is CollisionModel.NO_CD else _NOISE


class SlotCore:
    """What a tier's slot core hands its populations.

    The vertex indexing of the compiled topology and the channel
    semantics every population must apply identically: the message
    size policy, the SINR ladder, the optional event trace, and the
    feedback a silent, noisy or jammed listener perceives.
    """

    __slots__ = ("vertices", "index", "n", "size_policy", "sinr", "trace",
                 "silent", "noisy", "jam")

    def __init__(
        self,
        vertices: Sequence[Hashable],
        index: Mapping[Hashable, int],
        collision_model: CollisionModel,
        size_policy: MessageSizePolicy,
        sinr: Optional[SinrParams],
        trace: Optional[EventTrace],
    ) -> None:
        self.vertices = vertices
        self.index = index
        self.n = len(vertices)
        self.size_policy = size_policy
        self.sinr = sinr
        self.trace = trace
        # SINR feedback is CD-like: silence and noise are distinguishable.
        has_cd = collision_model is not CollisionModel.NO_CD
        self.silent = _SILENCE if has_cd else _NOTHING
        self.noisy = _NOISE if has_cd else _NOTHING
        self.jam = jam_reception_for(collision_model)


def gathered(
    listen_idx: np.ndarray,
    counts: np.ndarray,
    codes: np.ndarray,
    deliver: Optional[np.ndarray] = None,
) -> Resolution:
    """A kernel's per-vertex output, gathered at one slot's listeners.

    ``deliver`` is the SINR kernel's decode mask; the binary models
    decode exactly where one neighbor transmitted.
    """
    counts = counts[listen_idx]
    ok = counts == 1 if deliver is None else deliver[listen_idx]
    return counts, codes[listen_idx], ok


class SlotPopulation:
    """The interface a fast slot core drives (see the module docstring).

    After :meth:`collect`, ``tx_idx`` holds the transmitters that reach
    the channel, ``tx_levels`` their power levels (``None`` under the
    binary collision models), and ``listen_idx`` the listeners in
    listener order — all int64 vertex indices of the core's topology.
    """

    def __init__(self, core: SlotCore) -> None:
        self.core = core
        self.tx_idx: np.ndarray = _NO_INDICES
        self.tx_levels: Optional[np.ndarray] = None
        self.listen_idx: np.ndarray = _NO_INDICES
        # Energy accumulated since the last settle, per vertex index.
        self.tx_counts = np.zeros(core.n, dtype=np.int64)
        self.listen_counts = np.zeros(core.n, dtype=np.int64)

    def halted(self) -> bool:
        """True once nobody in the population will ever act again."""
        raise NotImplementedError

    def collect(
        self, slot: int, plan: Optional[SlotFaultPlan], counters: FaultCounters
    ) -> None:
        """Decide this slot's transmitters and listeners."""
        raise NotImplementedError

    def deliver(
        self, slot: int, resolved: Optional[Resolution], counters: FaultCounters
    ) -> None:
        """Take this slot's channel outcome at the listeners.

        ``resolved`` is ``None`` when nobody reached the channel (or
        nobody listened): every listener hears silence or a jam.
        """
        raise NotImplementedError

    def settle(self, ledger: EnergyLedger) -> None:
        """Charge the energy accumulated since the last settle.

        Vertices are charged in index order and only if they acted, so
        the ledger ends up knowing exactly the devices per-slot charging
        would have touched.
        """
        tx_counts = self.tx_counts
        listen_counts = self.listen_counts
        touched = (tx_counts + listen_counts).nonzero()[0]
        if not touched.size:
            return
        vertices = self.core.vertices
        ledger.charge_slot_counts(
            [vertices[i] for i in touched.tolist()],
            tx_counts[touched].tolist(),
            listen_counts[touched].tolist(),
        )
        tx_counts[touched] = 0
        listen_counts[touched] = 0


class DevicePopulation(SlotPopulation, Mapping[Hashable, Device]):
    """The object implementation: one :class:`Device` per vertex.

    A read-only mapping over the devices, so the reference engine can
    run it unchanged.  ``live`` holds the devices that have not halted,
    pruned once per slot by :meth:`halted` — the one halting rule of
    every slot tier.  ``core`` is ``None`` on the reference engine,
    which resolves slots from the devices itself and never calls
    :meth:`collect`.
    """

    def __init__(
        self, core: Optional[SlotCore], devices: Mapping[Hashable, Device]
    ) -> None:
        if core is None:
            self.core = None
        else:
            super().__init__(core)
            self._msgs: List[Optional[Message]] = [None] * core.n
        self.devices = devices
        self.live: List[Tuple[Hashable, Device]] = [
            (v, d) for v, d in devices.items() if not d.halted
        ]
        self._listeners: List[Device] = []
        self._jammed: List[bool] = []

    # Mapping over the devices ------------------------------------------
    def __getitem__(self, vertex: Hashable) -> Device:
        return self.devices[vertex]

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.devices)

    def __len__(self) -> int:
        return len(self.devices)

    # ------------------------------------------------------------------
    def halted(self) -> bool:
        live = self.live = [(v, d) for v, d in self.live if not d.halted]
        return not live

    def settle(self, ledger: EnergyLedger) -> None:
        if self.core is not None:
            super().settle(ledger)

    def collect(
        self, slot: int, plan: Optional[SlotFaultPlan], counters: FaultCounters
    ) -> None:
        core = self.core
        index = core.index
        sinr = core.sinr
        trace = core.trace
        check = core.size_policy.check
        msgs = self._msgs
        idle_kind = ActionKind.IDLE
        transmit_kind = ActionKind.TRANSMIT
        tx: List[int] = []
        levels: List[int] = []
        acted: List[int] = []
        costs: List[int] = []
        listen: List[int] = []
        listeners = self._listeners = []
        jammed = self._jammed = []

        for vertex, device in self.live:
            if device.halted:
                continue
            if plan is not None and vertex in plan.dead:
                continue
            action = device.step(slot)
            kind = action.kind
            if kind is idle_kind:
                continue
            i = index[vertex]
            if kind is transmit_kind:
                message = action.message
                if message is None:
                    raise SimulationError(f"device {vertex!r} transmitted no message")
                check(message)
                if sinr is None:
                    level, cost, detail = 0, 1, message.kind
                else:
                    level = transmit_level(device, action, sinr)
                    cost = sinr.power_costs[level]
                    detail = f"{message.kind}/p{level}"
                # A dropped transmitter spends the slot's energy and is
                # traced, but never enters the channel.
                if plan is not None and vertex in plan.dropped:
                    counters.dropped += 1
                else:
                    tx.append(i)
                    levels.append(level)
                    msgs[i] = message
                acted.append(i)
                costs.append(cost)
                if trace is not None:
                    trace.record(slot, "transmit", vertex, detail)
            else:  # LISTEN
                listen.append(i)
                listeners.append(device)
                jammed.append(plan is not None and vertex in plan.jammed)

        if acted:
            self.tx_counts[acted] += costs
        self.tx_idx = np.asarray(tx, dtype=np.int64)
        self.tx_levels = (
            np.asarray(levels, dtype=np.int64) if sinr is not None else None
        )
        self.listen_idx = np.asarray(listen, dtype=np.int64)
        if listen:
            self.listen_counts[self.listen_idx] += 1

    def deliver(
        self, slot: int, resolved: Optional[Resolution], counters: FaultCounters
    ) -> None:
        core = self.core
        jam = core.jam
        listeners = self._listeners
        if listeners:
            if resolved is None:
                silent = core.silent
                for device, jammed in zip(listeners, self._jammed):
                    if jammed:
                        counters.jammed += 1
                        device.receive(slot, jam)
                    else:
                        device.receive(slot, silent)
            else:
                msgs = self._msgs
                trace = core.trace
                vertices = core.vertices
                counts, codes, ok = (a.tolist() for a in resolved)
                for i, device, c, code, good, jammed in zip(
                    self.listen_idx.tolist(), listeners, counts, codes, ok,
                    self._jammed,
                ):
                    if jammed:
                        counters.jammed += 1
                        device.receive(slot, jam)
                    elif good:
                        message = msgs[code - 1]
                        counters.delivered += 1
                        device.receive(slot, Reception(Feedback.MESSAGE, message))
                        if trace is not None:
                            trace.record(slot, "receive", vertices[i], message.kind)
                    elif c == 0:
                        device.receive(slot, core.silent)
                    else:
                        device.receive(slot, core.noisy)
        for i in self.tx_idx.tolist():
            self._msgs[i] = None
