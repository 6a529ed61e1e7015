"""Tests for the event trace and the Device base class."""

import numpy as np
import pytest

from repro.radio import Action, ActionKind, Device, EventTrace, Message
from repro.radio.channel import Feedback, Reception


class TestEventTrace:
    def test_append_and_query(self):
        t = EventTrace()
        t.record(0, "transmit", "a")
        t.record(1, "receive", "b", detail="m")
        assert len(t) == 2
        assert [e.kind for e in t] == ["transmit", "receive"]
        assert t.of_kind("receive")[0].subject == "b"
        assert t.for_subject("a")[0].slot == 0

    def test_empty_queries(self):
        t = EventTrace()
        assert t.of_kind("nope") == []
        assert t.for_subject("nobody") == []

    def test_keeps_every_event(self):
        """No capacity option: a trace never drops an event."""
        t = EventTrace()
        for i in range(5):
            t.record(i, "x", i)
        assert [e.slot for e in t] == list(range(5))
        with pytest.raises(TypeError, match="capacity"):
            EventTrace(capacity=2)  # type: ignore[call-arg]


class TestAction:
    def test_idle_listen(self):
        assert Action.idle().kind is ActionKind.IDLE
        assert Action.listen().kind is ActionKind.LISTEN

    def test_transmit_requires_message(self):
        with pytest.raises(ValueError):
            Action.transmit(None)  # type: ignore[arg-type]

    def test_transmit_carries_message(self):
        m = Message(sender=0, bits=1)
        a = Action.transmit(m)
        assert a.kind is ActionKind.TRANSMIT
        assert a.message is m


class TestDeviceDefaults:
    def test_default_sleeps(self):
        d = Device("v", np.random.default_rng(0))
        assert d.step(0).kind is ActionKind.IDLE
        assert d.output() is None
        assert not d.halted

    def test_receive_is_noop(self):
        d = Device("v", np.random.default_rng(0))
        d.receive(0, Reception(Feedback.SILENCE))  # must not raise

    def test_private_rng(self):
        a = Device("a", np.random.default_rng(1))
        b = Device("b", np.random.default_rng(2))
        assert a.rng.random() != b.rng.random()
