"""Replica-batching benchmark: sweep throughput, R seeds per product.

The dominant sweep workload — many seeds of one (topology, algorithm,
faults) cell — pays one topology build, one CSR compile, and one sparse
product per slot **per seed** on the per-seed fast engine.  The
replica-batched engine (PR 5) shares all three across R lanes.  This
benchmark measures end-to-end ``run_specs`` wall time for the identical
spec list both ways (``ExecutionPolicy(batch_replicas=1)`` vs. fused),
in-process serial execution on both sides so the comparison is
engine-vs-engine, not pool-vs-pool (batching composes with the process
pool either way: units are what travels to workers).

The results are *byte-identical* by construction — asserted here, and
enforced in depth by ``tests/experiments/test_batch_equivalence.py`` —
so the speedup column is the whole story.

Committed record: ``BENCH_batch.json`` (RunResult schema, validated in
CI).  Regenerate deliberately with ``python benchmarks/bench_batch.py``.
Headline target: >= 3x sweep throughput at n=2000, R=32.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.analysis import format_table
from repro.experiments import (
    SCHEMA_VERSION,
    ExecutionPolicy,
    ExperimentSpec,
    run_specs,
)

try:
    from conftest import run_once
except ImportError:  # imported outside the benchmarks dir (smoke tests)
    def run_once(benchmark, fn):
        return fn()

#: Headline workload: a dense deterministic family at paper-relevant
#: scale, every seed sharing one topology (the batching precondition).
BATCH_BENCH_TOPOLOGY = "complete"
BATCH_BENCH_N = 2000
BATCH_BENCH_REPLICAS = 32
BATCH_BENCH_DEPTH = 4
BATCH_BENCH_RESULTS = Path(__file__).resolve().parents[1] / "BENCH_batch.json"

#: Secondary row: same workload at a smaller size, so the record shows
#: how the advantage scales with instance cost.
BATCH_BENCH_SMALL_N = 500

#: Acceptance floor for the headline row.
BATCH_BENCH_TARGET = 3.0


def _cell_specs(topology, n, replicas, depth):
    """R sibling seeds of one decay_bfs cell on the fast engine."""
    return [
        ExperimentSpec(
            topology=topology,
            n=n,
            algorithm="decay_bfs",
            algorithm_params={"depth_budget": depth, "record_labels": False},
            engine="fast",
            seed=seed,
        )
        for seed in range(replicas)
    ]


def batch_comparison(topology=BATCH_BENCH_TOPOLOGY, n=BATCH_BENCH_N,
                     replicas=BATCH_BENCH_REPLICAS, depth=BATCH_BENCH_DEPTH):
    """One row: the same sweep per-seed vs. replica-batched.

    Returns the row dict plus the first seed's two result documents
    (byte-identical, differing only in the opt-in timing block).
    """
    specs = _cell_specs(topology, n, replicas, depth)
    start = time.perf_counter()
    serial = run_specs(specs, parallel=False,
                       policy=ExecutionPolicy(batch_replicas=1))
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    batched = run_specs(specs, parallel=False)
    batched_s = time.perf_counter() - start
    for ref, got in zip(serial, batched):
        assert got.to_dict() == ref.to_dict(), (
            f"batched result diverged from serial (seed {ref.spec.seed})"
        )
    row = {
        "topology": topology,
        "n": serial.results[0].n,
        "replicas": replicas,
        "time_slots": serial.results[0].time_slots,
        "serial_s": round(serial_s, 3),
        "batched_s": round(batched_s, 3),
        "speedup": round(serial_s / batched_s, 2),
    }
    return row, serial.results[0], batched.results[0]


def sweep_throughput_document(headline_n=BATCH_BENCH_N,
                              small_n=BATCH_BENCH_SMALL_N,
                              replicas=BATCH_BENCH_REPLICAS,
                              depth=BATCH_BENCH_DEPTH):
    """The full benchmark record in the ``BENCH_*.json`` shape."""
    rows = []
    results = []
    for n in (small_n, headline_n):
        row, serial_result, batched_result = batch_comparison(
            n=n, replicas=replicas, depth=depth
        )
        rows.append(row)
        if n == headline_n:
            results = [
                serial_result.to_dict(include_timing=True),
                batched_result.to_dict(include_timing=True),
            ]
    return {
        "benchmark": "sweep-throughput: replica-batched decay_bfs seed sweeps "
                     "(serial per-seed fast engine vs one batched engine run)",
        "schema_version": SCHEMA_VERSION,
        "speedup": rows[-1]["speedup"],
        "target": BATCH_BENCH_TARGET,
        "rows": rows,
        "results": results,
    }


def _print_rows(rows, title):
    headers = ["topology", "n", "replicas", "slots/seed",
               "serial_s", "batched_s", "speedup"]
    print(format_table(
        headers,
        [[r["topology"], r["n"], r["replicas"], r["time_slots"],
          r["serial_s"], r["batched_s"], f'{r["speedup"]}x'] for r in rows],
        title=title,
    ))


def test_batch_throughput(benchmark):
    """Tentpole target: >= 3x sweep throughput at n=2000, R=32.

    The committed record lives in ``BENCH_batch.json``; regenerate it
    deliberately with ``python benchmarks/bench_batch.py`` rather than
    as a test side effect, so stray runs can't dirty the tree.
    """
    document = run_once(benchmark, sweep_throughput_document)
    print()
    _print_rows(document["rows"], title="Replica batching (decay_bfs seed sweeps)")
    assert document["speedup"] >= BATCH_BENCH_TARGET


def smoke(n=48, replicas=4):
    """Tiny pass over every entry point (pytest-collectable via
    ``tests/test_benchmark_smoke.py``): byte-identity plus a positive
    speedup measurement, no target assertion at toy scale."""
    row, serial_result, batched_result = batch_comparison(
        n=n, replicas=replicas, depth=3
    )
    assert serial_result.to_dict() == batched_result.to_dict()
    assert row["speedup"] > 0
    assert row["replicas"] == replicas
    return row


if __name__ == "__main__":  # standalone: regenerate the benchmark record
    import argparse

    parser = argparse.ArgumentParser(
        description="Replica-batching sweep-throughput benchmark (writes the "
                    "RunResult-schema record; defaults regenerate "
                    "BENCH_batch.json)"
    )
    parser.add_argument("--n", type=int, default=BATCH_BENCH_N,
                        help="headline instance size (CI smoke uses tiny n)")
    parser.add_argument("--small-n", type=int, default=BATCH_BENCH_SMALL_N)
    parser.add_argument("--replicas", type=int, default=BATCH_BENCH_REPLICAS)
    parser.add_argument("--depth", type=int, default=BATCH_BENCH_DEPTH)
    parser.add_argument("--out", default=str(BATCH_BENCH_RESULTS),
                        help="output path (default: BENCH_batch.json)")
    args = parser.parse_args()
    outcome = sweep_throughput_document(
        headline_n=args.n, small_n=args.small_n,
        replicas=args.replicas, depth=args.depth,
    )
    _print_rows(outcome["rows"], title="Replica batching (decay_bfs seed sweeps)")
    text = json.dumps(outcome, indent=2, sort_keys=True, allow_nan=False) + "\n"
    Path(args.out).write_text(text)
    print(f"wrote {args.out} (headline speedup {outcome['speedup']}x, "
          f"target {outcome['target']}x)")
