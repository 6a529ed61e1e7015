"""The benchmark's four workloads, as spec lists built through the public API.

Every cell seed comes from ``iter_grid(base_seed=seed)``: the benchmark
hands the program only the generated specs.  The two stochastic-topology
workloads run several cells per repetition (8 on ``dense_geometric``,
16 on ``geometric``) so that one cell's seed-dependent cost (BFS
eccentricity, MPX clustering rounds) averages out and runs on different
seeds stay comparable; 8 ``dense_geometric`` cells plus their BFS
oracle, which rebuilds every graph, fill one 30-second run.  Their
cells are stochastic, so each is its own execution unit; they run two
cells per ``run_specs`` call (``chunk``), which lets the host-speed
calibration sit beside every few seconds of work instead of only at the
ends of a repetition.  ``grid_serial`` runs one cell per call for the
same reason; ``sweep_mega`` is one call, since megabatch fuses its
cells into shared units.  ``scale="toy"`` shrinks every workload to a
few-second shape for the self-test; ``run.py`` runs ``scale="full"``
unless told otherwise.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

#: Seed at which the expected per-cell document digests are pinned.
DEFAULT_SEED = 0

#: The 12 seed-deterministic families of ``benchmarks/bench_backend.py``.
MEGA_FAMILIES = (
    "grid", "star", "cycle", "path", "wheel", "barbell",
    "hypercube", "star_of_paths", "binary_tree", "caterpillar",
    "complete", "lollipop",
)


class Workload(NamedTuple):
    name: str
    why: str
    layers: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "geo_dense",
            "decay_bfs, dense_geometric n=1000, 8 cells: graph build "
            "dominates and the dense channel gives the kernel its largest share",
            "exercises radio.topology, radio.kernels",
        ),
        Workload(
            "grid_serial",
            "decay_bfs, 32x32 grid, 2 seeds, batch_replicas=1: one long "
            "serial lane; device spawn and per-device calls dominate",
            "exercises fast_engine spawn and slot loop, primitives.decay; "
            "bypasses radio.topology",
        ),
        Workload(
            "sweep_mega",
            "272 small decay_bfs cells (12 families x 5 sizes + a SINR "
            "slice, 4 seeds) under megabatch: many short lanes",
            "exercises batch_engine, experiments.runner, results, store",
        ),
        Workload(
            "lb_recursive",
            "recursive_bfs, geometric n=1000, 16 cells: the paper's main "
            "algorithm on the LB tier; MPX clustering dominates",
            "exercises clustering, primitives.lb_graph; bypasses the slot "
            "engines",
        ),
    )
}


def build_specs(workload: str, seed: int, scale: str = "full"):
    """``(specs, policy, chunk)`` for one workload at one base seed;
    ``chunk`` is the number of cells per ``run_specs`` call, ``None``
    for a single call."""
    from repro.experiments import ExecutionPolicy, iter_grid

    toy = scale == "toy"
    specs: List = []
    policy: Optional[ExecutionPolicy] = None
    chunk: Optional[int] = None
    if workload == "geo_dense":
        specs = list(iter_grid(
            ["dense_geometric"], ["decay_bfs"], sizes=120 if toy else 1000,
            seeds=1 if toy else 8, base_seed=seed, engine="fast",
        ))
        chunk = 2
    elif workload == "grid_serial":
        specs = list(iter_grid(
            ["grid"], ["decay_bfs"], sizes=64 if toy else 1024,
            seeds=2, base_seed=seed, engine="fast",
            execution=ExecutionPolicy(batch_replicas=1),
        ))
        chunk = 1
    elif workload == "sweep_mega":
        families: Tuple[str, ...] = MEGA_FAMILIES[:3] if toy else MEGA_FAMILIES
        params = {"decay_bfs": {"depth_budget": 8}}
        specs = list(iter_grid(
            families, ["decay_bfs"],
            sizes=[16] if toy else [16, 24, 32, 48, 64],
            seeds=2 if toy else 4, base_seed=seed, engine="fast",
            algorithm_params=params,
        ))
        specs += list(iter_grid(
            ["poisson_cluster", "grid"], ["decay_bfs"],
            sizes=[16] if toy else [16, 32, 64, 128],
            seeds=2 if toy else 4, base_seed=seed, engine="fast",
            collision_model="sinr", sinr="default", algorithm_params=params,
        ))
        policy = ExecutionPolicy(backend="megabatch")
    elif workload == "lb_recursive":
        specs = list(iter_grid(
            ["geometric"], ["recursive_bfs"], sizes=150 if toy else 1000,
            seeds=1 if toy else 16, base_seed=seed, engine="fast",
        ))
        chunk = 2
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return specs, policy, chunk
