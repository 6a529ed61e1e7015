"""Span tracing from outside the program, and the per-layer metrics.

Nothing under ``src/`` is instrumented.  Each traced callable is
replaced, for the duration of each ``run_specs`` call, at the exact
place its caller looks it up: a module global that a caller imported
by name (``registry.make_network``), or a class attribute that a
caller reaches through an instance (``FastRadioNetwork.step``).  A
wrapper placed anywhere else never fires, which the missing-span guard
turns into a loud failure.

A span is ``[layer, start, end, parent, unit]``: ``unit`` is the index
of the execution-unit span (one ``run_experiment*`` call made by the
runner) the span ran under.  Spans stay in memory until the run ends.
A layer's self time is its spans' durations minus the time covered by
their direct child spans.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

ROOT = "runner"
UNIT = "runner.unit"

#: Work counted at a site: ``(args, kwargs, result) -> {counter: amount}``.
CountFn = Callable[[tuple, dict, Any], Dict[str, float]]


class Site(NamedTuple):
    layer: str
    module: str
    attr: str  # "name" or "Class.method"
    count: Optional[CountFn] = None


def _edges(args, kwargs, graph):
    return {"topology.edges": graph.number_of_edges()}


def _streams(args, kwargs, result):
    return {"spawn.streams": len(result)}


def _one_step(args, kwargs, result):
    return {"slot.steps": 1}


def _lockstep_steps(args, kwargs, executed):
    return {"slot.steps": max(executed.values(), default=0)}


def _kernel_one(args, kwargs, result):
    # (self, state, tx_idx): one lane over the whole prepared adjacency.
    return {"kernel.bytes_computed": args[1].nnz * 8}


def _kernel_many(args, kwargs, result):
    # (self, state, tx_lists): every lane's product touches all nnz.
    return {"kernel.bytes_computed": args[1].nnz * 8 * len(args[2])}


def _sinr_one(args, kwargs, result):
    return {"kernel.bytes_computed": args[0].indices.size * 8}


def _sinr_many(args, kwargs, result):
    return {"kernel.bytes_computed": sum(b[0].indices.size * 8 for b in args[0])}


def _one_phase(args, kwargs, result):
    return {"decay.phases": 1}


def _lane_phases(args, kwargs, result):
    return {"decay.phases": len(result)}


def _mega_occupancy(args, kwargs, results):
    slots = [r.time_slots for r in results]
    return {
        "mega.lane_slots": sum(slots),
        "mega.lane_capacity": len(slots) * max(slots, default=0),
    }


#: Every traced site, grouped by the layer (span name) it records.
SITES: Tuple[Site, ...] = (
    Site("topology", "repro.radio.topology", "scenario", _edges),
    Site("engine.compile", "repro.experiments.registry", "make_network"),
    Site("engine.compile", "repro.experiments.registry", "ReplicaBatchedNetwork"),
    Site("engine.compile", "repro.experiments.registry", "MegaBatchedNetwork"),
    Site("engine.compile", "repro.experiments.registry", "PhysicalLBGraph"),
    Site("spawn", "repro.radio.network", "spawn_device_map"),
    Site("spawn", "repro.radio.batch_engine", "spawn_device_map"),
    Site("spawn.streams", "repro.radio.network", "spawn_streams", _streams),
    Site("slot", "repro.radio.fast_engine", "FastRadioNetwork.step", _one_step),
    Site("slot", "repro.radio.batch_engine",
         "ReplicaBatchedNetwork.run_lockstep", _lockstep_steps),
    Site("slot", "repro.radio.batch_engine",
         "MegaBatchedNetwork.run_lockstep", _lockstep_steps),
    Site("kernel", "repro.radio.kernels.scipy_csr",
         "ScipyKernel.counts_codes", _kernel_one),
    Site("kernel", "repro.radio.kernels.scipy_csr",
         "ScipyKernel.counts_codes_many", _kernel_many),
    Site("kernel", "repro.radio.fast_engine", "sinr_arbitrate", _sinr_one),
    Site("kernel", "repro.radio.batch_engine", "sinr_arbitrate_many", _sinr_many),
    Site("decay", "repro.core.simple_bfs", "run_decay_local_broadcast", _one_phase),
    Site("decay", "repro.core.simple_bfs",
         "run_decay_local_broadcast_batch", _lane_phases),
    Site("decay", "repro.core.simple_bfs",
         "run_decay_local_broadcast_mega", _lane_phases),
    Site("bfs", "repro.experiments.registry", "decay_bfs"),
    Site("bfs", "repro.experiments.registry", "decay_bfs_batch"),
    Site("bfs", "repro.experiments.registry", "decay_bfs_mega"),
    Site("bfs", "repro.core.recursive_bfs", "RecursiveBFS.compute"),
    Site("clustering", "repro.clustering.distributed", "mpx_clustering"),
    Site(UNIT, "repro.experiments.runner", "run_experiment"),
    Site(UNIT, "repro.experiments.runner", "run_experiment_batch"),
    Site(UNIT, "repro.experiments.runner", "run_experiment_mega", _mega_occupancy),
    Site("results.encode", "repro.experiments.results", "RunResult.to_dict"),
    Site("store.append", "repro.experiments.store", "SweepStore.add_many"),
    Site("store.fsync", "os", "fsync"),
)

#: The workloads on which each layer's spans must fire (the guard).
EXPECTED_SPANS: Dict[str, Tuple[str, ...]] = {
    "topology": ("geo_dense", "grid_serial", "sweep_mega", "lb_recursive"),
    "engine.compile": ("geo_dense", "grid_serial", "sweep_mega", "lb_recursive"),
    "spawn": ("grid_serial", "sweep_mega"),
    "spawn.streams": ("grid_serial", "sweep_mega"),
    "slot": ("grid_serial", "sweep_mega"),
    "kernel": ("geo_dense", "grid_serial", "sweep_mega"),
    "decay": ("grid_serial", "sweep_mega"),
    "bfs": ("geo_dense", "grid_serial", "sweep_mega", "lb_recursive"),
    "clustering": ("lb_recursive",),
    UNIT: ("geo_dense", "grid_serial", "sweep_mega", "lb_recursive"),
    "results.encode": ("sweep_mega",),
    "store.append": ("sweep_mega",),
    "store.fsync": ("sweep_mega",),
}


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric and workload it should move


#: Per-layer metrics, in report order, with what each should move.
LAYER_METRICS: Tuple[LayerMetric, ...] = (
    LayerMetric("topology.build_s", "s", "lower", "e2e_s, peak_rss_mb on geo_dense; ~0 elsewhere"),
    LayerMetric("topology.calls", "count", "lower", "e2e_s on geo_dense"),
    LayerMetric("topology.edges", "count", "lower", "e2e_s, peak_rss_mb on geo_dense"),
    LayerMetric("engine.compile_s", "s", "lower", "e2e_s on geo_dense, grid_serial"),
    LayerMetric("spawn.s", "s", "lower", "e2e_s on grid_serial, sweep_mega"),
    LayerMetric("spawn.calls", "count", "lower", "e2e_s on grid_serial, sweep_mega"),
    LayerMetric("spawn.streams", "count", "lower", "e2e_s on grid_serial, sweep_mega"),
    LayerMetric("slot.self_s", "s", "lower", "e2e_s on grid_serial, sweep_mega"),
    LayerMetric("slot.steps", "count", "lower", "e2e_s on grid_serial, sweep_mega"),
    LayerMetric("kernel.s", "s", "lower", "e2e_s on geo_dense (<=5% elsewhere)"),
    LayerMetric("kernel.calls", "count", "lower", "e2e_s on geo_dense"),
    LayerMetric("kernel.bytes_computed", "bytes", "lower", "e2e_s on geo_dense"),
    LayerMetric("decay.self_s", "s", "lower", "e2e_s on grid_serial, sweep_mega"),
    LayerMetric("decay.phases", "count", "lower", "e2e_s on grid_serial, sweep_mega"),
    LayerMetric("bfs.self_s", "s", "lower", "e2e_s on all four workloads"),
    LayerMetric("clustering.s", "s", "lower", "e2e_s on lb_recursive only"),
    LayerMetric("clustering.calls", "count", "lower", "e2e_s on lb_recursive only"),
    LayerMetric("runner.self_s", "s", "lower", "e2e_s on sweep_mega"),
    LayerMetric("runner.units", "count", "lower", "e2e_s on sweep_mega"),
    LayerMetric("mega.lane_occupancy", "ratio", "higher", "e2e_s on sweep_mega"),
    LayerMetric("results.encode_s", "s", "lower", "e2e_s on sweep_mega"),
    LayerMetric("store.append_s", "s", "lower", "e2e_s on sweep_mega"),
    LayerMetric("store.fsyncs", "count", "lower", "e2e_s on sweep_mega"),
    LayerMetric("store.bytes", "bytes", "lower", "e2e_s on sweep_mega"),
    LayerMetric("sim.device_actions", "count", "lower", "identical under a simulator-only change"),
    LayerMetric("sim.slots", "count", "lower", "identical under a simulator-only change"),
    LayerMetric("sim.lb_rounds", "count", "lower", "identical under a simulator-only change"),
    LayerMetric("trace.overhead_s", "s", "lower", "traced minus untraced e2e_s, per workload"),
)


class Recorder:
    """In-memory span stack for the traced ``run_specs`` calls of one repetition."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.units = 0

    def enter(self, layer: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        unit = self.spans[parent][4] if parent >= 0 else -1
        if layer == UNIT and parent >= 0 and self.spans[parent][0] == ROOT:
            unit = self.units
            self.units += 1
        index = len(self.spans)
        self.spans.append([layer, time.perf_counter(), None, parent, unit])
        self.stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, site: Site, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            index = self.enter(site.layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(index)
            if site.count is not None:
                self.counts.update(site.count(args, kwargs, result))
            return result

        return traced

    def write(self, path: str) -> None:
        """Write the spans out as JSON lines."""
        with open(path, "w") as handle:
            for layer, start, end, parent, unit in self.spans:
                handle.write(json.dumps({
                    "name": layer, "start": start, "end": end,
                    "parent": parent, "unit": unit,
                }) + "\n")


def _resolve(site: Site) -> Tuple[Any, str]:
    """The object holding the site's attribute, and the attribute name."""
    owner: Any = importlib.import_module(site.module)
    *path, name = site.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class installed:
    """Context manager: every site wrapped and the root span open inside."""

    def __init__(self, recorder: Recorder, sites: Sequence[Site] = SITES) -> None:
        self.recorder = recorder
        self.sites = sites
        self._saved: List[Tuple[Any, str, Any]] = []
        self._root = -1

    def __enter__(self) -> Recorder:
        for site in self.sites:
            owner, name = _resolve(site)
            original = getattr(owner, name)
            self._saved.append((owner, name, original))
            setattr(owner, name, self.recorder.wrap(site, original))
        self._root = self.recorder.enter(ROOT)
        return self.recorder

    def __exit__(self, *exc) -> None:
        self.recorder.exit(self._root)
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


def _self_times(spans: List[list]) -> List[float]:
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _outer_total(spans: List[list], layer: str) -> float:
    """Summed duration of a layer's spans not nested in the same layer."""
    total = 0.0
    for layer_i, start, end, parent, _ in spans:
        if layer_i != layer:
            continue
        while parent >= 0 and spans[parent][0] != layer:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def layer_metrics(recorder: Recorder, results, store_bytes: int) -> Dict[str, float]:
    """Every per-layer metric except ``trace.overhead_s``."""
    spans = recorder.spans
    own = _self_times(spans)
    self_s: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for span, t in zip(spans, own):
        self_s[span[0]] += t
        calls[span[0]] += 1
    c = recorder.counts
    capacity = c["mega.lane_capacity"]
    return {
        "topology.build_s": _outer_total(spans, "topology"),
        "topology.calls": calls["topology"],
        "topology.edges": c["topology.edges"],
        "engine.compile_s": _outer_total(spans, "engine.compile"),
        "spawn.s": _outer_total(spans, "spawn"),
        "spawn.calls": calls["spawn"],
        "spawn.streams": c["spawn.streams"],
        "slot.self_s": self_s["slot"],
        "slot.steps": c["slot.steps"],
        "kernel.s": _outer_total(spans, "kernel"),
        "kernel.calls": calls["kernel"],
        "kernel.bytes_computed": c["kernel.bytes_computed"],
        "decay.self_s": self_s["decay"],
        "decay.phases": c["decay.phases"],
        "bfs.self_s": self_s["bfs"],
        "clustering.s": _outer_total(spans, "clustering"),
        "clustering.calls": calls["clustering"],
        "runner.self_s": self_s[ROOT] + self_s[UNIT],
        "runner.units": recorder.units,
        "mega.lane_occupancy": c["mega.lane_slots"] / capacity if capacity else 0.0,
        "results.encode_s": _outer_total(spans, "results.encode"),
        "store.append_s": _outer_total(spans, "store.append"),
        "store.fsyncs": calls["store.fsync"],
        "store.bytes": store_bytes,
        "sim.device_actions": sum(r.total_slot_energy + r.total_lb_energy for r in results),
        "sim.slots": sum(r.time_slots for r in results),
        "sim.lb_rounds": sum(r.lb_rounds for r in results),
    }


def span_counts(recorder: Recorder) -> Dict[str, int]:
    """Number of recorded spans per layer."""
    return dict(Counter(span[0] for span in recorder.spans))


def missing_spans(workload: str, counts: Dict[str, int]) -> List[str]:
    """Layers expected to fire on ``workload`` that recorded no span."""
    return [
        layer for layer, workloads in EXPECTED_SPANS.items()
        if workload in workloads and not counts.get(layer)
    ]
