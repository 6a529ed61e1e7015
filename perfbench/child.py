"""One benchmark repetition, run by ``run.py`` in a fresh process.

Modes:

- ``setup``: import the program, expand the workload's specs and create
  an empty store, then stop right before the first ``run_specs`` call;
- ``run``: the same, then the timed ``run_specs(..., parallel=False,
  store=...)`` calls, then the correctness checks, outside the timed
  region;
- ``trace``: ``run`` with every tracing site wrapped around each call.

A workload whose cells never share an execution unit is run as several
calls of ``chunk`` cells each, on the same store; the host-speed
calibration (``calibrate.py``) runs before the first call and after
each one, outside every timed interval, and each call's wall time is
scaled by the geometric mean of the two readings beside it.  ``e2e_s``
is the sum of the scaled times, ``e2e_wall_s`` that of the raw ones.

The last line of standard output is one JSON object.  ``ready`` is the
``time.monotonic()`` reading once the store exists; the parent
subtracts its own reading taken just before it spawned this process,
so set-up time covers interpreter start, imports, spec expansion and
store creation.  ``speed_setup`` is the first calibration reading.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def canonical_digest(doc) -> str:
    """SHA-256 of a result document's canonical bytes (timing stripped)."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def bfs_oracle(spec, doc):
    """Check one BFS result against networkx distances.

    Returns ``(problems, labelled, exact)``.  Every finite label must be
    at least the true distance and at most the depth budget, and every
    labelled non-source vertex needs a neighbour labelled exactly one
    less.  Exact equality holds only with high probability (a failed
    Decay phase labels a vertex late), so it is counted, not required.
    """
    import networkx as nx

    graph = spec.build_graph()
    params = spec.params()
    sources = set(params.get("sources", [0]))
    budget = params.get("depth_budget", graph.number_of_nodes())
    labels = {
        tuple(v) if isinstance(v, list) else v: d
        for v, d in doc["output"]["labels"] if d is not None
    }
    dist = nx.multi_source_dijkstra_path_length(graph, sources)
    problems = []
    exact = 0
    for v, d in labels.items():
        true = dist.get(v, math.inf)
        exact += d == true
        if d < true or d > budget:
            problems.append(f"vertex {v!r}: label {d} outside [{true}, {budget}]")
        elif v not in sources and not any(
            labels.get(u) == d - 1 for u in graph.neighbors(v)
        ):
            problems.append(f"vertex {v!r}: label {d} has no neighbour at {d - 1}")
    return problems, len(labels), exact


def _store_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _dead_site_sites(sites):
    """The site table with ``spawn_streams`` wrapped where no caller looks
    it up any more: ``repro.radio.network`` imported it by name, so
    rebinding ``repro.rng.spawn_streams`` never fires."""
    return tuple(
        s._replace(module="repro.rng") if s.layer == "spawn.streams" else s
        for s in sites
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--oracle", action="store_true")
    parser.add_argument("--plant-dead-site", action="store_true")
    args = parser.parse_args()

    from workloads import build_specs
    from repro.experiments import SweepStore, run_specs, spec_hash

    workdir = Path(args.workdir)
    store_dir = workdir / "store"
    specs, policy, chunk = build_specs(args.workload, args.seed, args.scale)
    store = SweepStore(str(store_dir))
    ready = time.monotonic()
    from calibrate import Calibrator

    with Calibrator() as calibrator:
        speed = calibrator.speed()
        out = {"ready": ready, "cells": len(specs), "speed_setup": speed}
        if args.mode == "setup":
            print(json.dumps(out))
            return 0

        recorder = None
        if args.mode == "trace":
            import tracing

            sites = tracing.SITES
            if args.plant_dead_site:
                sites = _dead_site_sites(sites)
            recorder = tracing.Recorder()
        results = []
        e2e = e2e_wall = 0.0
        for first in range(0, len(specs), chunk or len(specs)):
            part = specs[first:first + (chunk or len(specs))]
            tracer = (contextlib.nullcontext() if recorder is None
                      else tracing.installed(recorder, sites))
            with tracer:
                start = time.perf_counter()
                try:
                    results.extend(run_specs(part, parallel=False, store=store,
                                             policy=policy))
                except Exception:
                    out["error"] = traceback.format_exc()
                wall = time.perf_counter() - start
            after = calibrator.speed()
            e2e_wall += wall
            e2e += wall * math.sqrt(speed * after)
            speed = after
            if "error" in out:
                break
    out["e2e_s"] = e2e
    out["e2e_wall_s"] = e2e_wall
    out["speed"] = e2e / e2e_wall
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if "error" in out:
        print(json.dumps(out))
        return 0

    results = list(results)
    out["actions"] = sum(r.total_slot_energy + r.total_lb_energy for r in results)
    docs = [r.to_dict() for r in results]
    out["hashes"] = [spec_hash(s) for s in specs]
    out["digests"] = [canonical_digest(d) for d in docs]

    # Results must be durable: a fresh handle on the store sees every cell.
    failed = {}
    reopened = SweepStore(str(store_dir))
    for i, (h, doc) in enumerate(zip(out["hashes"], docs)):
        stored = reopened.get(h)
        if stored is None or stored.to_dict() != doc:
            failed[i] = "result missing from the store or differing from it"

    if args.oracle:
        labelled = exact = 0
        for i, (spec, doc) in enumerate(zip(specs, docs)):
            problems, n_labelled, n_exact = bfs_oracle(spec, doc)
            labelled += n_labelled
            exact += n_exact
            if problems:
                failed.setdefault(i, "BFS oracle: " + "; ".join(problems[:3]))
        out["oracle"] = {"labelled": labelled, "exact": exact}
    out["failed"] = failed

    if recorder is not None:
        import tracing

        out["layers"] = tracing.layer_metrics(recorder, results, _store_bytes(store_dir))
        out["spans"] = tracing.span_counts(recorder)
        recorder.write(str(workdir / "spans.jsonl"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
