"""A finished cell's topology is freed by reference counting.

networkx caches its graph views in the graph, and the views point back
at it; the runner drops them when a unit ends, so a cell's graph does
not wait for the cyclic garbage collector.  Checked with the collector
off: a weak reference to every graph a unit built is dead once
``run_specs`` returns.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.experiments import ExecutionPolicy, iter_grid, run_specs
from repro.experiments.spec import ExperimentSpec

SERIAL = ExecutionPolicy(batch_replicas=1)
MEGA = ExecutionPolicy(backend="megabatch")

UNITS = {
    "serial_stochastic": (
        dict(topologies=["dense_geometric"], algorithms=["decay_bfs"], sizes=50),
        None,
    ),
    "serial": (dict(topologies=["grid"], algorithms=["decay_bfs"], sizes=25), SERIAL),
    "batch": (dict(topologies=["grid"], algorithms=["decay_bfs"], sizes=25), None),
    "mega": (
        dict(topologies=["grid", "star"], algorithms=["decay_bfs"], sizes=16),
        MEGA,
    ),
    "lb_tier": (
        dict(topologies=["geometric"], algorithms=["recursive_bfs"], sizes=50),
        None,
    ),
    "dynamic": (
        dict(topologies=["grid"], algorithms=["decay_bfs"], sizes=25,
             dynamic="churn_mix"),
        None,
    ),
}


@pytest.mark.parametrize("unit", sorted(UNITS))
def test_unit_graphs_die_with_the_unit(monkeypatch, unit):
    grid, policy = UNITS[unit]
    refs = []
    build = ExperimentSpec.build_graph

    def tracked(self):
        graph = build(self)
        refs.append(weakref.ref(graph))
        return graph

    monkeypatch.setattr(ExperimentSpec, "build_graph", tracked)
    specs = list(iter_grid(seeds=2, engine="fast", **grid))
    gc.collect()
    gc.disable()
    try:
        run_specs(specs, parallel=False, policy=policy)
        alive = [ref() is not None for ref in refs]
    finally:
        gc.enable()
    assert refs and not any(alive)
