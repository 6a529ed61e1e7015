"""Device base class for slot-level protocols.

A :class:`Device` is the per-vertex state machine of a slot-level radio
protocol.  Each slot the simulator calls :meth:`Device.step` to obtain
an action (idle / listen / transmit), resolves the channel, and then
calls :meth:`Device.receive` on listeners with the channel feedback.

Devices hold a *private* random stream (the model has no shared
randomness) and never read global state: everything a device knows it
learned from its own inputs and received messages.  The stream may
arrive unbuilt (a :class:`~repro.rng.LazyStream`); :attr:`Device.rng`
builds its Generator on first access, so a device that never draws
never pays for one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Hashable, Optional

import numpy as np

from ..rng import LazyStream, Stream, built
from .channel import Reception
from .message import Message


class ActionKind(enum.Enum):
    """The three per-slot choices of the RN model."""

    IDLE = "idle"
    LISTEN = "listen"
    TRANSMIT = "transmit"


@dataclass(frozen=True)
class Action:
    """A device's choice for one slot.

    ``power`` selects a discrete transmit power level for this slot
    only (an index into the SINR model's ``power_levels`` ladder);
    ``None`` defers to the device's standing
    :attr:`Device.power_level`.  Binary collision models ignore it.
    """

    kind: ActionKind
    message: Optional[Message] = None
    power: Optional[int] = None

    @classmethod
    def idle(cls) -> "Action":
        """Sleep: costs nothing."""
        return _IDLE

    @classmethod
    def listen(cls) -> "Action":
        """Listen: costs one energy unit."""
        return _LISTEN

    @classmethod
    def transmit(cls, message: Message, power: Optional[int] = None) -> "Action":
        """Transmit ``message``; under SINR, cost depends on the level."""
        if message is None:
            raise ValueError("transmit requires a message")
        return cls(ActionKind.TRANSMIT, message, power)


# Idle/listen carry no payload, so one frozen instance each serves every
# device and slot — devices issue millions of these on large runs.
_IDLE = Action(ActionKind.IDLE)
_LISTEN = Action(ActionKind.LISTEN)


class Device:
    """Base class for protocol state machines.

    Subclasses override :meth:`step` (choose this slot's action) and
    :meth:`receive` (process channel feedback after a listening slot).
    """

    #: Standing transmit power level (index into the SINR power
    #: ladder); overridable per slot via ``Action.transmit(power=)``.
    #: Ignored by the binary collision models.
    power_level: int = 0

    def __init__(self, vertex: Hashable, rng: Stream) -> None:
        self.vertex = vertex
        self._stream = rng
        self.halted = False

    @property
    def rng(self) -> np.random.Generator:
        """The device's private Generator, built on first access."""
        stream = self._stream
        if isinstance(stream, LazyStream):
            stream = self._stream = built(stream)
        return stream

    @rng.setter
    def rng(self, value: Stream) -> None:
        self._stream = value

    def step(self, slot: int) -> Action:
        """Return the device's action for time ``slot``.

        Default: sleep forever.  Subclasses override.
        """
        return Action.idle()

    def receive(self, slot: int, reception: Reception) -> None:
        """Process channel feedback after listening at time ``slot``."""

    def output(self) -> Any:
        """The device's final output (protocol-specific)."""
        return None
