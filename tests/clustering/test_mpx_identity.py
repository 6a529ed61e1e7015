"""Frontier-grown MPX clustering against the round-scan reference.

``mpx_clustering`` grows clusters from a frontier and touches only the
vertices that can change in a round.  The straightforward round-scan
loop it replaced is kept here, verbatim, as the reference: every round
it scans all unclustered vertices for new centers and rebuilds every
unclustered vertex's clustered-neighbor list.  The two must agree bit
for bit (maps in insertion order, rounds used, shifts, and the state of
the Generator afterwards), and the frontier version must read each
adjacency list O(1) times however long the horizon is.

The non-contiguous labels (tuples, sparse ints) matter: on ``0..n-1``
ints the iteration order of ``set(graph.nodes)`` coincides with
``sorted()``, so a wrong draw order would go unnoticed there.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Set, Tuple

import networkx as nx
import numpy as np
import pytest

from repro.clustering import ShiftParameters, Shifts, mpx_clustering
from repro.errors import SimulationError
from repro.radio import topology
from repro.rng import make_rng


def round_scan_mpx(graph, beta, seed=None, n_global=None, radius_multiplier=4.0):
    """The O(T * (n + m)) round-scan loop; returns the comparable fields."""
    n = n_global if n_global is not None else graph.number_of_nodes()
    params = ShiftParameters(beta=beta, n=max(2, n), radius_multiplier=radius_multiplier)
    rng = make_rng(seed)
    shifts = Shifts.sample(graph.nodes, params, seed=rng)

    center_of: Dict[Hashable, Hashable] = {}
    layer_of: Dict[Hashable, int] = {}
    members: Dict[Hashable, Set[Hashable]] = {}
    unclustered: Set[Hashable] = set(graph.nodes)
    horizon = params.horizon

    rounds_used = 0
    for round_index in range(1, horizon + 1):
        if not unclustered:
            break
        rounds_used = round_index
        for v in sorted(
            (v for v in unclustered if shifts.start_time[v] == round_index), key=repr
        ):
            center_of[v] = v
            layer_of[v] = 0
            members[v] = {v}
            unclustered.discard(v)
        joiners: List[Tuple[Hashable, Hashable]] = []
        for v in unclustered:
            clustered_neighbors = [u for u in graph.neighbors(v) if u in center_of]
            if clustered_neighbors:
                pick = clustered_neighbors[int(rng.integers(len(clustered_neighbors)))]
                joiners.append((v, pick))
        for v, parent in joiners:
            cluster = center_of[parent]
            center_of[v] = cluster
            layer_of[v] = layer_of[parent] + 1
            members[cluster].add(v)
            unclustered.discard(v)

    if unclustered:
        raise SimulationError(
            f"{len(unclustered)} vertices left unclustered after {horizon} rounds"
        )
    return center_of, layer_of, members, shifts, rounds_used


def _tuple_grid() -> nx.Graph:
    return nx.grid_2d_graph(9, 11)


def _sparse_geometric() -> nx.Graph:
    g = topology.scenario("geometric", 150, seed=5)
    return nx.relabel_nodes(g, {v: 7 * v + 1000 for v in g.nodes})


def _string_path() -> nx.Graph:
    return nx.relabel_nodes(nx.path_graph(40), {v: f"v{v}" for v in range(40)})


GRAPHS = {
    "grid20": lambda: topology.grid_graph(20, 20),
    "tuple_grid": _tuple_grid,
    "sparse_geometric": _sparse_geometric,
    "string_path": _string_path,
}

CASES = [
    (name, beta, rm, seed)
    for name in GRAPHS
    for beta, rm in ((1 / 16, 4.0), (1 / 4, 2.0), (1 / 2, 1.0))
    for seed in range(3)
]


@pytest.mark.parametrize("name,beta,rm,seed", CASES)
def test_matches_round_scan(name, beta, rm, seed):
    graph = GRAPHS[name]()
    ref_rng = np.random.default_rng(seed)
    ref = round_scan_mpx(graph, beta, seed=ref_rng, radius_multiplier=rm)
    new_rng = np.random.default_rng(seed)
    got = mpx_clustering(graph, beta, seed=new_rng, radius_multiplier=rm)

    center_of, layer_of, members, shifts, rounds_used = ref
    assert list(got.center_of.items()) == list(center_of.items())
    assert list(got.layer_of.items()) == list(layer_of.items())
    assert list(got.members.items()) == list(members.items())
    assert got.rounds_used == rounds_used
    assert got.shifts.start_time == shifts.start_time
    assert int(new_rng.integers(2**62)) == int(ref_rng.integers(2**62))


def test_registered_families_match_round_scan():
    """Every registered scenario family, one small size, two seeds."""
    for family in topology.scenario_names():
        graph = topology.scenario(family, 24, seed=1)
        for seed in range(2):
            ref = round_scan_mpx(graph, 1 / 4, seed=seed, radius_multiplier=2.0)
            got = mpx_clustering(graph, 1 / 4, seed=seed, radius_multiplier=2.0)
            assert list(got.center_of.items()) == list(ref[0].items()), family
            assert list(got.layer_of.items()) == list(ref[1].items()), family
            assert got.rounds_used == ref[4], family


class CountingGraph(nx.Graph):
    """An ``nx.Graph`` that counts its ``neighbors()`` calls."""

    neighbor_calls = 0

    def neighbors(self, n):
        self.neighbor_calls += 1
        return super().neighbors(n)


def _counted(cluster, radius_multiplier: float) -> int:
    graph = CountingGraph(topology.grid_graph(20, 20))
    cluster(graph, 1 / 16, seed=0, radius_multiplier=radius_multiplier)
    return graph.neighbor_calls


@pytest.mark.parametrize("radius_multiplier", [4.0, 8.0])
def test_adjacency_reads_independent_of_horizon(radius_multiplier):
    """At most 2n ``neighbors()`` calls on a 20x20 grid, at any horizon."""
    assert _counted(mpx_clustering, radius_multiplier) <= 2 * 400


def test_work_bound_catches_round_scan():
    """The bound is not vacuous: the round-scan loop blows through it."""
    assert _counted(round_scan_mpx, 4.0) > 100 * 400
