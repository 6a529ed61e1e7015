"""Identity gate for copy-free topology builds.

Builders that pass ``reuse_whole`` to ``_giant_component`` return an
already-connected graph on ``0..n-1`` as itself instead of copying it
twice.  Every registered family must still build exactly what the copy
pipeline ``_relabel(G.subgraph(largest).copy())`` built — vertex order,
edge order, every adjacency list, node data and graph data — because
device streams are spawned in vertex order and the fast engine's CSR
rows follow adjacency order.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.radio import topology

SIZES = (8, 24, 60, 130)
SEEDS = (0, 1, 2, 3)
#: Families whose builders take the copy-free path.
REUSING = ("geometric", "dense_geometric", "erdos_renyi")


def _copy_pipeline(graph, reuse_whole=False):
    """The giant-component step as it was before ``reuse_whole``."""
    if graph.number_of_nodes() == 0:
        return graph
    largest = max(nx.connected_components(graph), key=len)
    return topology._relabel(graph.subgraph(largest).copy())


def _shape(graph):
    return (
        list(graph.nodes),
        list(graph.edges),
        [list(graph.adj[v]) for v in graph],
        list(graph.nodes(data=True)),
        dict(graph.graph),
    )


def _build(monkeypatch, name, n, seed, giant):
    with monkeypatch.context() as patch:
        patch.setattr(topology, "_giant_component", giant)
        return topology.scenario(name, n, seed=seed)


@pytest.mark.parametrize("name", topology.scenario_names())
def test_builders_match_the_copy_pipeline(monkeypatch, name):
    reused = []
    real = topology._giant_component

    def spy(graph, reuse_whole=False):
        out = real(graph, reuse_whole)
        reused.append(out is graph)
        return out

    for n in SIZES:
        for seed in SEEDS:
            built = _build(monkeypatch, name, n, seed, spy)
            expected = _build(monkeypatch, name, n, seed, _copy_pipeline)
            assert _shape(built) == _shape(expected), (name, n, seed)
    # The gate must exercise the copy-free path where it is claimed.
    assert any(reused) == (name in REUSING)


@pytest.mark.parametrize("name", ["expander", "small_world"])
def test_gate_catches_reuse_where_the_copy_reorders(monkeypatch, name):
    """Planted regression: reusing the graph on a family whose copy
    reorders adjacency lists changes the build, and the gate sees it."""
    real = topology._giant_component

    def always_reuse(graph, reuse_whole=False):
        return real(graph, True)

    differs = [
        _shape(_build(monkeypatch, name, n, seed, always_reuse))
        != _shape(_build(monkeypatch, name, n, seed, _copy_pipeline))
        for n in SIZES
        for seed in SEEDS
    ]
    assert any(differs)
