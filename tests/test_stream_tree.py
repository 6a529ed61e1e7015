"""Lazy per-device streams: the ``StreamTree`` derivation and its laziness.

A :class:`~repro.rng.StreamTree` hands out the children of a
``SeedSequence`` without building them.  These tests pin that every
child it hands out is draw-for-draw the child ``SeedSequence.spawn``
would have made, on every slot tier, and that a Decay phase built from
a tree pays for exactly one Generator per sender.
"""

import numpy as np
import pytest

from repro.core import simple_bfs
from repro.core.simple_bfs import decay_bfs
from repro.primitives import decay
from repro.primitives.decay import DecayReceiver, run_decay_local_broadcast
from repro.radio import MegaBatchedNetwork, ReplicaBatchedNetwork, make_network, topology
from repro.radio.device import Device
from repro.radio.message import message_of_ints
from repro.rng import LazyStream, StreamTree, make_rng, spawn_streams
from repro.rng import built as built_stream

DRAWS = 6


def _draws(rng):
    return rng.random(DRAWS).tolist()


def _advanced(seed, spawned):
    """A Generator whose seed sequence has already spawned ``spawned`` children."""
    rng = make_rng(seed)
    rng.bit_generator.seed_seq.spawn(spawned)
    return rng


class _Recorder(Device):
    """Keeps its stream unbuilt until the test draws from it."""


@pytest.mark.parametrize("spawned", [1, 7])
def test_batches_match_seed_sequence_children(spawned):
    """Consecutive batches continue the parent's counter, child for child."""
    tree = StreamTree(_advanced(11, spawned))
    eager = _advanced(11, spawned).bit_generator.seed_seq
    for count in (3, 0, 5, 1):
        lazy = tree.spawn(count)
        children = eager.spawn(count)
        assert len(lazy) == count
        for stream, child in zip(lazy, children):
            assert isinstance(stream, LazyStream)
            assert _draws(stream.generator()) == _draws(np.random.default_rng(child))


def test_spawn_streams_dispatches_on_tree():
    """``spawn_streams`` keeps building Generators from a Generator and
    hands out lazy children from a tree."""
    lazy = spawn_streams(StreamTree(4), 3)
    eager = spawn_streams(make_rng(4), 3)
    assert all(isinstance(s, LazyStream) for s in lazy)
    assert [_draws(s.generator()) for s in lazy] == [_draws(g) for g in eager]


def test_sync_advances_only_a_callers_generator():
    caller = _advanced(3, 2)
    tree = StreamTree(caller)
    tree.spawn(4)
    tree.spawn(5)
    assert caller.bit_generator.seed_seq.n_children_spawned == 2
    tree.sync()
    assert caller.bit_generator.seed_seq.n_children_spawned == 11
    tree.sync()  # idempotent
    assert caller.bit_generator.seed_seq.n_children_spawned == 11
    StreamTree(5).sync()  # an int seed has no caller to advance


def _serial_spawn(graph, seed):
    return make_network(graph, engine="fast").spawn_devices(_Recorder, seed=seed)


def _replica_spawn(graph, seed):
    return ReplicaBatchedNetwork(graph, 2).spawn_devices(_Recorder, seed=seed)


def _mega_spawn(graph, seed):
    net = MegaBatchedNetwork([
        ReplicaBatchedNetwork(topology.scenario("path", 5), 1),
        ReplicaBatchedNetwork(graph, 1),
    ])
    return net.member(1).spawn_devices(_Recorder, seed=seed)


@pytest.mark.parametrize("spawn", [_serial_spawn, _replica_spawn, _mega_spawn],
                         ids=["serial", "replica", "mega"])
def test_tiers_spawn_identical_streams_from_a_tree(spawn):
    """Phase after phase, a tree-spawned population draws exactly what a
    Generator-spawned one does, on every tier's ``spawn_devices``."""
    graph = topology.scenario("grid", 12)
    caller = _advanced(21, 3)
    tree = StreamTree(_advanced(21, 3))
    for _ in range(3):
        eager = spawn(graph, caller)
        lazy = spawn(graph, tree)
        assert list(lazy) == list(eager)
        for v in eager:
            assert isinstance(lazy[v]._stream, LazyStream)
            assert _draws(lazy[v].rng) == _draws(eager[v].rng)
    tree.sync()
    assert (caller.bit_generator.seed_seq.n_children_spawned
            == _advanced(21, 3 + 3 * len(graph)).bit_generator.seed_seq.n_children_spawned)


def test_decay_bfs_advances_a_callers_generator_per_phase(monkeypatch):
    """A Generator passed to ``decay_bfs`` ends the run advanced by one
    population per Decay phase, as when every phase spawned from it."""
    phases = []
    real = simple_bfs.run_decay_local_broadcast

    def counting(*args, **kwargs):
        phases.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(simple_bfs, "run_decay_local_broadcast", counting)
    graph = topology.scenario("grid", 16)
    caller = _advanced(8, 5)
    decay_bfs(make_network(graph, engine="fast"), 0, 8, seed=caller)
    assert phases
    assert (caller.bit_generator.seed_seq.n_children_spawned
            == 5 + len(phases) * graph.number_of_nodes())


# ---------------------------------------------------------------------------
# Laziness: one Generator per sender, and a planted eager receiver is caught
# ---------------------------------------------------------------------------

def _generators_built_by_one_phase(monkeypatch, engine="fast"):
    """Run one Decay phase on a 32x32 grid from a tree; return
    ``(Generators built, senders)``."""
    graph = topology.scenario("grid", 1024)
    net = make_network(graph, engine=engine)
    senders = [v for v in graph if v % 7 == 0]
    messages = {v: message_of_ints(v, 0, kind="bfs") for v in senders}
    receivers = [v for v in graph if v % 7 != 0 and v % 3 != 0]
    tree = StreamTree(5)
    built = []
    real = np.random.default_rng

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", counting)
        run_decay_local_broadcast(net, messages, receivers, seed=tree)
    return len(built), len(senders)


def test_one_decay_phase_builds_one_generator_per_sender(monkeypatch):
    built, senders = _generators_built_by_one_phase(monkeypatch)
    assert built == senders


def test_object_roles_build_one_generator_per_sender(monkeypatch):
    built, senders = _generators_built_by_one_phase(monkeypatch, "reference")
    assert built == senders


def test_planted_eager_receiver_is_caught(monkeypatch):
    """A columnar phase that builds every vertex's Generator at spawn —
    receivers included — is the regression the laziness check exists to
    catch."""
    monkeypatch.setattr(decay, "_stream", lambda vertex, stream: built_stream(stream))
    built, senders = _generators_built_by_one_phase(monkeypatch)
    assert built > senders


def test_planted_eager_receiver_role_is_caught(monkeypatch):
    """A receiver role that touches its stream builds a Generator it
    never draws from; the reference engine runs the object roles."""
    real_init = DecayReceiver.__init__

    def eager_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        self.rng  # noqa: B018 - the planted eager access

    monkeypatch.setattr(DecayReceiver, "__init__", eager_init)
    built, senders = _generators_built_by_one_phase(monkeypatch, "reference")
    assert built > senders
