"""The columnar Decay phase against the object roles it replaces.

On the fast tiers a Decay Local-Broadcast runs as a
:class:`~repro.primitives.decay.DecayPhase` (sender schedule table,
receiver mask); the reference :class:`~repro.radio.RadioNetwork` runs the
object roles (``DecaySender`` / ``DecayReceiver`` / ``_SleepingDevice``).
Phase after phase, both must agree on everything observable: the heard
map, the slot clock, the energy ledger, the fault counters, the event
trace, and how many children the stream tree handed out — across

    family x collision model x {no faults, drop+jam+crash, dynamic}
    x {trace off, trace on} x {serial, replica, mega}

(lanes keep no trace and run static topologies only).  The last tests
plant two bugs in the phase and check this comparison catches them.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.core import decay_bfs
from repro.core.simple_bfs import decay_bfs_batch, decay_bfs_mega
from repro.errors import ConfigurationError
from repro.primitives import decay
from repro.primitives.decay import (
    DecayParameters,
    DecayPhase,
    run_decay_local_broadcast,
    run_decay_local_broadcast_batch,
    run_decay_local_broadcast_mega,
)
from repro.radio import (
    ChurnSchedule,
    CollisionModel,
    EventTrace,
    FastRadioNetwork,
    FaultModel,
    IIDDrop,
    Jammer,
    MegaBatchedNetwork,
    RadioNetwork,
    ReplicaBatchedNetwork,
    message_of_ints,
    topology,
)
from repro.radio.dynamic import build_dynamic_topology
from repro.rng import StreamTree

FAMILIES = ("grid", "star_of_paths", "power_law", "barbell", "grid_tuples")
MODELS = tuple(CollisionModel)
SIZES = (16, 30)
SEEDS = (0, 1)
PHASES = 3
#: Four iterations per phase keep the grid quick.
F = 1 / 16

STACK = FaultModel(layers=(
    IIDDrop(p=0.2),
    Jammer(k=2, period=3, active=2),
    ChurnSchedule(events=((3, "crash", 1), (3, "crash", 4), (20, "revive", 1))),
))


def _graph(family, n, seed):
    if family == "grid_tuples":
        graph = topology.scenario("grid", n, seed=seed)
        return nx.relabel_nodes(graph, {v: ("v", v) for v in graph})
    return topology.scenario(family, n, seed=seed)


def _rounds(graph, seed, phase):
    """A deterministic (messages, receivers) round: about a quarter of
    the vertices send, about half listen."""
    pick = random.Random(seed * 1000 + phase)
    vertices = list(graph.nodes)
    senders = [v for v in vertices if pick.random() < 0.25] or vertices[:1]
    rest = [v for v in vertices if v not in senders]
    receivers = [v for v in rest if pick.random() < 0.6]
    messages = {
        v: message_of_ints(i, phase, kind="bfs")
        for i, v in enumerate(senders)
    }
    return messages, receivers


def _engine_kwargs(model, faults, fault_seed):
    kwargs = {"collision_model": model, "faults": faults, "fault_seed": fault_seed}
    if model is CollisionModel.SINR:
        kwargs["sinr"] = "default"
    return kwargs


def _power(model):
    # A non-default standing level exercises the ladder's costs and the
    # "kind/p{level}" trace detail.
    return 1 if model is CollisionModel.SINR else 0


def _serial_log(engine_cls, graph, model, fault, trace_on, seed):
    faults = STACK if fault == "stack" else None
    kwargs = _engine_kwargs(model, faults, seed + 50)
    if fault == "dynamic":
        dynamic = build_dynamic_topology("churn_mix", graph, seed=seed + 7)
        graph = dynamic.initial_graph()
        kwargs["dynamic"] = dynamic
    trace = EventTrace() if trace_on else None
    net = engine_cls(graph, trace=trace, **kwargs)
    tree = StreamTree(seed + 100)
    log = []
    for phase in range(PHASES):
        messages, receivers = _rounds(graph, seed, phase)
        heard = run_decay_local_broadcast(
            net, messages, receivers, failure_probability=F, seed=tree,
            tx_power=_power(model),
        )
        log.append((
            heard, net.slot, net.ledger.time_slots, net.ledger.snapshot(),
            net.fault_counters.as_dict(),
            list(trace) if trace is not None else None, tree._next,
        ))
    return log


def _check_serial(family, model, fault, trace_on):
    for n in SIZES:
        for seed in SEEDS:
            graph = _graph(family, n, seed)
            reference = _serial_log(RadioNetwork, graph, model, fault, trace_on, seed)
            fast = _serial_log(FastRadioNetwork, graph, model, fault, trace_on, seed)
            assert fast == reference, (family, n, seed)


def _member(graph, model, faults, lane_seeds, replicas):
    kwargs = {"collision_model": model, "faults": faults,
              "fault_seeds": [s + 50 for s in lane_seeds]}
    if model is CollisionModel.SINR:
        kwargs["sinr"] = "default"
    return ReplicaBatchedNetwork(graph, replicas, **kwargs)


def _lane_entry(lane, tree, heard):
    return (
        heard, lane.slot, lane.ledger.time_slots, lane.ledger.snapshot(),
        lane.fault_counters.as_dict(), None, tree._next,
    )


def _check_lanes(family, model, fault, mega):
    faults = STACK if fault == "stack" else None
    fault_name = "stack" if fault == "stack" else None
    for n in SIZES:
        graphs = [_graph(family, n, 0)]
        if mega:
            graphs.append(_graph("path" if family != "path" else "cycle", n // 2, 0))
        lane_seeds = [[0, 1], [2]][:len(graphs)]
        members = [
            _member(g, model, faults, seeds, len(seeds))
            for g, seeds in zip(graphs, lane_seeds)
        ]
        keys = [(m, r) for m, seeds in enumerate(lane_seeds) for r in range(len(seeds))]
        seed_of = {(m, r): lane_seeds[m][r] for m, r in keys}
        trees = {key: StreamTree(seed_of[key] + 100) for key in keys}
        net = MegaBatchedNetwork(members) if mega else members[0]
        logs = {key: [] for key in keys}
        for phase in range(PHASES):
            rounds = {
                key: _rounds(graphs[key[0]], seed_of[key], phase) for key in keys
            }
            if mega:
                heard = run_decay_local_broadcast_mega(
                    net, rounds, failure_probability=F, seeds=trees,
                    tx_power={m: _power(model) for m in range(len(graphs))},
                )
            else:
                heard = {
                    (0, r): out for r, out in run_decay_local_broadcast_batch(
                        net, {r: rounds[(0, r)] for _, r in keys},
                        failure_probability=F,
                        seeds={r: trees[(0, r)] for _, r in keys},
                        tx_power=_power(model),
                    ).items()
                }
            for key in keys:
                m, r = key
                logs[key].append(
                    _lane_entry(members[m].lane(r), trees[key], heard[key])
                )
        for key in keys:
            reference = _serial_log(
                RadioNetwork, graphs[key[0]], model, fault_name, False,
                seed_of[key],
            )
            assert logs[key] == reference, (family, n, key)


def _serial_cases():
    for family in FAMILIES:
        for model in MODELS:
            for fault in ("clean", "stack", "dynamic"):
                if fault == "dynamic" and (
                    model is CollisionModel.SINR or family == "grid_tuples"
                ):
                    continue  # SINR and dynamic labels need a static int graph
                yield family, model, fault


@pytest.mark.parametrize("trace_on", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("family,model,fault", list(_serial_cases()))
def test_serial_phase_matches_object_roles(family, model, fault, trace_on):
    _check_serial(family, model, fault, trace_on)


@pytest.mark.parametrize("fault", ["clean", "stack"])
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("family", FAMILIES)
def test_replica_phase_matches_object_roles(family, model, fault):
    _check_lanes(family, model, fault, mega=False)


@pytest.mark.parametrize("fault", ["clean", "stack"])
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("family", FAMILIES)
def test_mega_phase_matches_object_roles(family, model, fault):
    _check_lanes(family, model, fault, mega=True)


class _SlotWatch:
    """Stands in for an invariant monitor: reads the engine every slot."""

    def __init__(self):
        self.seen = []

    def observe_labels(self, labels):
        pass

    def after_slot(self, engine):
        self.seen.append((
            engine.slot, engine.ledger.time_slots, engine.ledger.snapshot(),
            engine.fault_counters.as_dict(),
        ))


@pytest.mark.parametrize("fault", ["clean", "stack"])
@pytest.mark.parametrize("model", MODELS)
def test_ledger_is_current_after_every_slot(model, fault):
    """The phase books energy lazily, but a slot hook must still see
    exactly what per-slot charging shows."""
    graph = _graph("power_law", 30, 3)
    watches = []
    for engine_cls in (RadioNetwork, FastRadioNetwork):
        net = engine_cls(graph, **_engine_kwargs(
            model, STACK if fault == "stack" else None, 9,
        ))
        net.invariant_monitor = _SlotWatch()
        watches.append(net.invariant_monitor)
        decay_bfs(net, 0, 12, failure_probability=F, seed=5,
                  tx_power=_power(model))
    assert watches[0].seen and watches[1].seen == watches[0].seen


# ---------------------------------------------------------------------------
# The fast tiers build no object roles
# ---------------------------------------------------------------------------

@pytest.fixture
def role_constructions(monkeypatch):
    built = []
    for cls in (decay.DecaySender, decay.DecayReceiver, decay._SleepingDevice):
        real = cls.__init__

        def counting(self, *args, _real=real, **kwargs):
            built.append(type(self).__name__)
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return built


def test_fast_tiers_construct_no_object_roles(role_constructions):
    graph = topology.scenario("grid", 36)
    decay_bfs(FastRadioNetwork(graph), 0, 12, seed=3)
    decay_bfs_batch(ReplicaBatchedNetwork(graph, 2), 0, 12, seeds=[3, 4])
    mega = MegaBatchedNetwork([
        ReplicaBatchedNetwork(graph, 1),
        ReplicaBatchedNetwork(topology.scenario("star", 9), 2),
    ])
    decay_bfs_mega(mega, {0: 0, 1: 0}, {0: 12, 1: 4}, seeds={(0, 0): 1})
    assert role_constructions == []


def test_reference_engine_runs_the_object_roles(role_constructions):
    decay_bfs(RadioNetwork(topology.scenario("grid", 16)), 0, 8, seed=3)
    assert set(role_constructions) == {
        "DecaySender", "DecayReceiver", "_SleepingDevice",
    }


def test_reference_engine_rejects_a_columnar_phase():
    graph = topology.scenario("path", 6)
    phase = decay._phase(
        FastRadioNetwork(graph), {0: message_of_ints(0, 0)}, [1],
        DecayParameters.for_network(2, F), 0, 0, 1,
    )
    with pytest.raises(ConfigurationError, match="Device objects only"):
        RadioNetwork(graph).run(phase, max_slots=4)


# ---------------------------------------------------------------------------
# Planted bugs: the differential comparison must catch each one
# ---------------------------------------------------------------------------

def _receiver_not_cleared(monkeypatch):
    real = DecayPhase.deliver

    def leaky(self, slot, resolved, counters):
        active = self._active
        real(self, slot, resolved, counters)
        self._active = active

    monkeypatch.setattr(DecayPhase, "deliver", leaky)


def _schedule_shifted(monkeypatch):
    real = DecayPhase.__init__

    def late(self, *args, **kwargs):
        real(self, *args, **kwargs)
        self.start_slot += 1

    monkeypatch.setattr(DecayPhase, "__init__", late)


@pytest.mark.parametrize("plant", [_receiver_not_cleared, _schedule_shifted],
                         ids=["receiver_not_cleared", "schedule_shifted"])
@pytest.mark.parametrize("tier", ["serial", "replica", "mega"])
def test_planted_phase_bug_is_caught(monkeypatch, plant, tier):
    plant(monkeypatch)
    with pytest.raises(AssertionError):
        if tier == "serial":
            _check_serial("grid", CollisionModel.NO_CD, "clean", True)
        else:
            _check_lanes("grid", CollisionModel.NO_CD, "clean", tier == "mega")
