"""Miller–Peng–Xu clustering, centralized reference (paper Section 2).

A cluster forms at each vertex ``u`` at time ``-delta_u`` (here:
integer round ``start_u``) and spreads one hop per round; every vertex
is absorbed by the first cluster to reach it (ties broken arbitrarily —
here uniformly at random, matching the arbitrary single delivery of the
distributed Local-Broadcast implementation).

This centralized routine is the ground truth against which the
distributed implementation (``repro.clustering.distributed``) is
validated, and the fast path used by the charged-cost clustering
shortcut (ARCHITECTURE.md, "Charged shortcuts on the LB tier").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set, Tuple

import networkx as nx

from ..errors import ConfigurationError, SimulationError
from ..rng import SeedLike, make_rng
from .shifts import ShiftParameters, Shifts


@dataclass
class Clustering:
    """The result of MPX clustering: a partition into low-radius clusters.

    Cluster identifiers are the center vertices.  ``layer_of[v]`` is the
    BFS layer of ``v`` inside its cluster (0 at the center), the ``L``
    labels of Lemma 2.5.
    """

    beta: float
    n_global: int
    center_of: Dict[Hashable, Hashable]
    layer_of: Dict[Hashable, int]
    members: Dict[Hashable, Set[Hashable]]
    shifts: Shifts
    rounds_used: int

    @property
    def inv_beta(self) -> int:
        """Integer ``1/beta``."""
        return round(1.0 / self.beta)

    def clusters(self) -> Set[Hashable]:
        """All cluster identifiers (center vertices)."""
        return set(self.members)

    @property
    def max_layer(self) -> int:
        """Maximum in-cluster BFS layer (= max cluster radius)."""
        return max(self.layer_of.values(), default=0)

    def cluster_radius(self, cluster: Hashable) -> int:
        """Radius of one cluster (max member layer)."""
        return max((self.layer_of[v] for v in self.members[cluster]), default=0)

    def quotient_graph(self, base: nx.Graph) -> nx.Graph:
        """The cluster graph ``G* = cluster(G, beta)`` as an nx.Graph.

        ``V* = clusters``; an edge joins two clusters iff some base edge
        crosses between them (paper Section 2.1).
        """
        quotient = nx.Graph()
        quotient.add_nodes_from(self.members)
        for u, v in base.edges:
            cu, cv = self.center_of[u], self.center_of[v]
            if cu != cv:
                quotient.add_edge(cu, cv)
        return quotient

    def cut_edges(self, base: nx.Graph) -> List[Tuple[Hashable, Hashable]]:
        """Base edges whose endpoints lie in distinct clusters."""
        return [
            (u, v)
            for u, v in base.edges
            if self.center_of[u] != self.center_of[v]
        ]

    def cut_fraction(self, base: nx.Graph) -> float:
        """Fraction of base edges cut by the partition (``O(beta)`` w.h.p.)."""
        m = base.number_of_edges()
        if m == 0:
            return 0.0
        return len(self.cut_edges(base)) / m

    def validate(self, base: nx.Graph) -> None:
        """Sanity-check the partition invariants; raise on violation.

        - every vertex belongs to exactly one cluster;
        - the center has layer 0 and each layer-``i`` vertex (i > 0) has
          a neighbor in the same cluster at layer ``i - 1`` (Lemma 2.5's
          label property);
        - clusters induce connected subgraphs.
        """
        if set(self.center_of) != set(base.nodes):
            raise SimulationError("clustering does not cover the vertex set")
        for cluster, members in self.members.items():
            if self.center_of.get(cluster) != cluster:
                raise SimulationError(f"center {cluster!r} not in its own cluster")
            if self.layer_of[cluster] != 0:
                raise SimulationError(f"center {cluster!r} has nonzero layer")
            for v in members:
                if self.center_of[v] != cluster:
                    raise SimulationError("members map inconsistent with center_of")
                layer = self.layer_of[v]
                if layer > 0:
                    ok = any(
                        self.center_of.get(u) == cluster
                        and self.layer_of.get(u) == layer - 1
                        for u in base.neighbors(v)
                    )
                    if not ok:
                        raise SimulationError(
                            f"vertex {v!r} at layer {layer} has no parent layer"
                        )


def mpx_clustering(
    graph: nx.Graph,
    beta: float,
    seed: SeedLike = None,
    n_global: Optional[int] = None,
    radius_multiplier: float = 4.0,
    shifts: Optional[Shifts] = None,
) -> Clustering:
    """Compute ``cluster(G, beta)`` centrally (synchronous-round semantics).

    Round ``i`` (for ``i = 1..T``): unclustered vertices with
    ``start_v = i`` become centers at layer 0; then every unclustered
    vertex adjacent to a clustered vertex joins one such neighbor's
    cluster (uniformly at random among clustered neighbors) at that
    neighbor's layer + 1.  This matches the distributed construction of
    Lemma 2.5 exactly, so the distributed implementation can be
    validated against it distributionally.

    Cost: ``O(n log n + m)``, independent of the horizon ``T``.  Each
    round touches only that round's new centers and its frontier (the
    unclustered vertices with a clustered neighbor), every vertex reads
    its adjacency once, and rounds in which nothing can change are
    skipped.
    """
    if graph.number_of_nodes() == 0:
        raise ConfigurationError("cannot cluster an empty graph")
    n = n_global if n_global is not None else graph.number_of_nodes()
    params = ShiftParameters(beta=beta, n=max(2, n), radius_multiplier=radius_multiplier)
    rng = make_rng(seed)
    if shifts is None:
        shifts = Shifts.sample(graph.nodes, params, seed=rng)

    center_of: Dict[Hashable, Hashable] = {}
    layer_of: Dict[Hashable, int] = {}
    members: Dict[Hashable, Set[Hashable]] = {}
    # Draw order: a vertex's position in the iteration order of
    # ``set(graph.nodes)`` (ARCHITECTURE.md, "Charged shortcuts on the LB
    # tier").
    position = {v: i for i, v in enumerate(set(graph.nodes))}
    remaining = len(position)
    horizon = params.horizon
    start_rounds = iter(sorted(shifts.buckets))
    # Unclustered vertices with a clustered neighbor, plus stale entries
    # (vertices clustered since they were pushed) skipped on use.
    frontier: Set[Hashable] = set()

    rounds_used = 0
    round_index = 0
    while remaining:
        # An idle round (no frontier) changes nothing: skip to the next
        # round in which some vertex starts.
        if frontier:
            round_index += 1
        else:
            round_index = next(
                (r for r in start_rounds if r > round_index), horizon + 1
            )
        if round_index > horizon:
            break
        rounds_used = round_index
        # New centers.
        for v in sorted(shifts.buckets.get(round_index, ()), key=repr):
            if v in position and v not in center_of:
                center_of[v] = v
                layer_of[v] = 0
                members[v] = {v}
                remaining -= 1
                frontier.update(graph.neighbors(v))
        # One hop of growth: each unclustered vertex with clustered
        # neighbors joins one uniformly at random (the arbitrary single
        # delivery of Local-Broadcast).  Every such vertex is on the
        # frontier, and all of them join this round.
        joiners: List[Tuple[Hashable, Hashable, List[Hashable]]] = []
        for v in sorted(
            (v for v in frontier if v not in center_of), key=position.__getitem__
        ):
            neighbors = list(graph.neighbors(v))
            clustered_neighbors = [u for u in neighbors if u in center_of]
            pick = clustered_neighbors[int(rng.integers(len(clustered_neighbors)))]
            joiners.append((v, pick, neighbors))
        frontier = set()
        for v, parent, neighbors in joiners:
            cluster = center_of[parent]
            center_of[v] = cluster
            layer_of[v] = layer_of[parent] + 1
            members[cluster].add(v)
            remaining -= 1
            frontier.update(neighbors)

    if remaining:
        # Every vertex starts its own cluster by round start_v <= T, so
        # this can only happen through a bug.
        raise SimulationError(
            f"{remaining} vertices left unclustered after {horizon} rounds"
        )

    return Clustering(
        beta=beta,
        n_global=n,
        center_of=center_of,
        layer_of=layer_of,
        members=members,
        shifts=shifts,
        rounds_used=rounds_used,
    )
