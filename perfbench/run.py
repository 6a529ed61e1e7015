"""End-to-end benchmark of the slot-level simulator, one workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload grid_serial --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30      # every workload

Each repetition runs the workload's specs through ``run_specs(...,
parallel=False, store=<fresh SweepStore>)`` in a fresh child process
(``child.py``), in one call or, where no two cells share an execution
unit, in calls of a few cells each; children run one at a time, so at
most one core is busy.  Repetitions repeat
until ``--seconds`` would be exceeded.  Times are measured by this
process and the child around the call, never read from
``RunResult.wall_time_s``.

Every time is host-normalised: the child times fixed calibration
kernels beside each call (``calibrate.py``) and the call's wall time is
scaled by the host's speed relative to a reference host, so that the tens of
seconds a shared host runs slow do not read as a regression.  The raw
wall times are printed in the report.

With ``--trace 0`` the last line reports the end-to-end metrics:

- ``e2e_s``: wall time of the ``run_specs`` calls, from spec list in to
  results durable in the store, host-normalised (median over
  repetitions);
- ``setup_s``: fresh-process time from spawn to the ``run_specs`` call,
  host-normalised (median over every child, including set-up-only
  probes);
- ``device_actions_per_s``: simulated transmit+listen actions,
  sum of ``total_slot_energy + total_lb_energy``, per second of ``e2e_s``;
- ``peak_rss_mb``: ``ru_maxrss`` of the child.

``failed_frac`` (cells that failed the correctness gate or raised, over
cells attempted) is printed in the report and carried by the
``attempted``/``failed`` fields; it should be 0.

With ``--trace 1`` untraced and traced repetitions alternate, and the
last line reports the per-layer metrics of ``tracing.LAYER_METRICS``.
A layer whose spans do not fire on a workload named for it in
``tracing.EXPECTED_SPANS`` fails the run (exit code 3).

The correctness gate: at the default seed every cell's canonical
document digest must equal the one in ``digests.json``; at any seed,
every repetition must reproduce the first one's digests, every result
must be readable back from the store, and the first repetition's BFS
labels are checked against networkx distances.  ``--record-digests``
rewrites the workload's entry in ``digests.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS, missing_spans  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

END_TO_END = (
    ("e2e_s", "s"),
    ("setup_s", "s"),
    ("device_actions_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
DIGESTS = HERE / "digests.json"
WORK = ROOT / ".perfbench_work"
#: Set-up-only children per run, after one discarded warm-up child.
SETUP_PROBES = 2
#: A child still running this long after the measuring window is killed.
GRACE_S = 120
#: One busy core: keep numeric libraries from starting thread pools.
CHILD_ENV = {
    **os.environ,
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed cell)."""


def spawn(workload: str, seed: int, scale: str, mode: str, workdir: Path,
          stop: float, oracle: bool = False, plant_dead_site: bool = False) -> dict:
    """Run one child to completion, or kill it at monotonic time ``stop``;
    its JSON line plus ``setup_s``."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--scale", scale, "--mode", mode,
        "--workdir", str(workdir),
    ]
    if oracle:
        cmd.append("--oracle")
    if plant_dead_site:
        cmd.append("--plant-dead-site")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
            timeout=max(1.0, stop - spawned),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} child killed after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(
            f"{mode} child exited {proc.returncode}:\n{proc.stderr.strip()}"
        )
    rep = json.loads(lines[-1])
    rep["setup_wall_s"] = rep["ready"] - spawned
    rep["setup_s"] = rep["setup_wall_s"] * rep["speed_setup"]
    rep["wall_s"] = time.monotonic() - spawned
    return rep


def tail_note(values: List[float], unit: str) -> str:
    """Sample count and, for a time, the highest percentile with at least
    ten samples beyond it."""
    n = len(values)
    if unit != "s":
        return f"n={n}"
    if n < 11:
        return f"n={n}; no percentile has 10 samples beyond it"
    pct = (n - 10) / n * 100
    rank = sorted(values)[n - 11]
    return f"n={n}; p{pct:.0f}={rank:.6g}"


def failed_cells(rep: dict, reference: List[str],
                 expected: Optional[Dict[str, str]]) -> Dict[int, str]:
    """Cells of one repetition that failed the correctness gate, and why."""
    if "error" in rep:
        why = "run_specs raised " + rep["error"].strip().splitlines()[-1]
        return {i: why for i in range(rep["cells"])}
    bad = {int(i): why for i, why in rep["failed"].items()}
    for i, (h, got) in enumerate(zip(rep["hashes"], rep["digests"])):
        if got != reference[i]:
            bad.setdefault(i, "document differs from the first repetition")
        if expected is not None and expected.get(h) != got:
            bad.setdefault(i, "document digest differs from digests.json")
    return bad


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: str = "full", expected: Optional[Dict[str, str]] = None,
            plant_dead_site: bool = False) -> dict:
    """All repetitions of one workload within ``seconds``; the summary."""
    deadline = time.monotonic() + seconds
    stop = deadline + GRACE_S
    workdir = WORK / f"{os.getpid()}-{workload}"
    modes = ("run", "trace") if trace else ("run",)
    reps: Dict[str, List[dict]] = {mode: [] for mode in modes}
    attempted = failed = 0
    reference: List[str] = []
    notes: List[str] = []
    oracle = {"labelled": 0, "exact": 0}
    try:
        spawn(workload, seed, scale, "setup", workdir, stop)  # warm caches, discarded
        probes = [spawn(workload, seed, scale, "setup", workdir, stop)
                  for _ in range(SETUP_PROBES)]
        setup = [p["setup_s"] for p in probes]
        setup_wall = [p["setup_wall_s"] for p in probes]
        turn = 0
        while True:
            mode = modes[turn % len(modes)]
            done = reps[mode]
            turn += 1
            if done and time.monotonic() + min(r["wall_s"] for r in done) > deadline:
                if all(reps.values()):
                    break
                continue
            rep = spawn(workload, seed, scale, mode, workdir, stop,
                        oracle=turn == 1, plant_dead_site=plant_dead_site)
            done.append(rep)
            setup.append(rep["setup_s"])
            setup_wall.append(rep["setup_wall_s"])
            if not reference and "error" not in rep:
                reference = rep["digests"]
            bad = failed_cells(rep, reference, expected)
            notes.extend(f"{mode} cell {i}: {why}" for i, why in sorted(bad.items())[:3])
            attempted += rep["cells"]
            failed += len(bad)
            for key in oracle:
                oracle[key] += rep.get("oracle", {}).get(key, 0)
        if trace:
            missing = missing_spans(workload, reps["trace"][-1].get("spans", {}))
            if missing:
                raise BenchmarkError(
                    f"traced run of {workload}: no span recorded for "
                    f"{', '.join(missing)}; a wrapper sits where no caller "
                    f"looks the callable up"
                )
            if (workdir / "spans.jsonl").exists():
                shutil.move(str(workdir / "spans.jsonl"), WORK / f"spans-{workload}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = [r for r in reps["run"] if "error" not in r] or reps["run"]
    e2e = [r["e2e_s"] for r in runs]
    samples = {
        "e2e_s": e2e,
        "setup_s": setup,
        "device_actions_per_s": [r.get("actions", 0) / t for r, t in zip(runs, e2e)],
        "peak_rss_mb": [r["rss_mb"] for r in runs],
    }
    wall = {
        "e2e_s": [r["e2e_wall_s"] for r in runs],
        "setup_s": setup_wall,
        "host speed": [r["speed"] for r in runs],
    }
    metrics = {
        name: {"value": statistics.median(samples[name]), "unit": unit}
        for name, unit in END_TO_END
    }
    summary = {
        "workload": workload, "seed": seed, "samples": samples, "wall": wall,
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "notes": notes, "oracle": oracle,
        "record": dict(zip(runs[0].get("hashes", []), runs[0].get("digests", []))),
    }
    if trace:
        traced = [r for r in reps["trace"] if "layers" in r]
        timed = {m.name for m in LAYER_METRICS if m.unit == "s"}
        values = {
            name: statistics.median(
                r["layers"][name] * (r["speed"] if name in timed else 1)
                for r in traced
            )
            for name in (traced[0]["layers"] if traced else ())
        }
        traced_e2e = statistics.median(r["e2e_s"] for r in reps["trace"])
        values["trace.overhead_s"] = traced_e2e - metrics["e2e_s"]["value"]
        summary["traced_e2e_s"] = traced_e2e
        summary["layers"] = {
            m.name: {"value": values.get(m.name, 0.0), "unit": m.unit}
            for m in LAYER_METRICS
        }
    return summary


def report(summary: dict) -> None:
    """Human-readable block for one workload (precedes the JSON line)."""
    print(f"== {summary['workload']} (seed {summary['seed']})")
    for name, unit in END_TO_END:
        values = summary["samples"][name]
        print(f"  {name:<22} {summary['metrics'][name]['value']:>14.6g} {unit:<5}"
              f" median; {tail_note(values, unit)}")
        print(f"  {'':<22} samples: {' '.join(f'{v:.4g}' for v in values)}")
    for name, values in summary["wall"].items():
        label, unit = (f"raw {name}", "s") if name.endswith("_s") else (name, "ratio")
        print(f"  {label:<22} {statistics.median(values):>14.6g} {unit:<5}"
              f" median (information); n={len(values)}")
        print(f"  {'':<22} samples: {' '.join(f'{v:.4g}' for v in values)}")
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"  {'failed_frac':<22} {failed / attempted:>14.6g} ratio"
          f" {failed} of {attempted} cells")
    oracle = summary["oracle"]
    if oracle["labelled"]:
        print(f"  {'oracle exact-match':<22} {oracle['exact'] / oracle['labelled']:>14.6g}"
              f" ratio {oracle['exact']} of {oracle['labelled']} labels (information)")
    for note in summary["notes"]:
        print(f"  ! {note}")
    if "layers" in summary:
        e2e = summary["traced_e2e_s"]
        for m in LAYER_METRICS:
            value = summary["layers"][m.name]["value"]
            share = f"{value / e2e:7.1%} of traced e2e" if m.unit == "s" and e2e else ""
            print(f"  {m.name:<22} {value:>14.6g} {m.unit:<5} {share}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite this workload's expected digests at the default seed")
    # Self-test hooks: toy-sized workloads, their own digest file, and a
    # wrapper planted where no caller looks the callable up.
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--digests", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--plant-dead-site", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "experiments" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error(f"digests are pinned at the default seed {DEFAULT_SEED}")
    if args.scale != "full" and args.digests is None:
        parser.error("--scale toy checks digests only against an explicit --digests file")
    digest_path = args.digests or DIGESTS
    expected = None
    if args.seed == DEFAULT_SEED and not args.record_digests:
        try:
            expected = json.loads(digest_path.read_text())
        except (OSError, ValueError) as exc:
            print(f"perfbench: cannot read {digest_path}: {exc}", file=sys.stderr)
            return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    try:
        for name in names:
            summaries.append(measure(
                name, args.seed, args.seconds, bool(args.trace), args.scale,
                None if expected is None else expected.get(name, {}),
                args.plant_dead_site,
            ))
            report(summaries[-1])
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    if args.record_digests:
        recorded = json.loads(digest_path.read_text()) if digest_path.exists() else {}
        recorded.update({s["workload"]: s["record"] for s in summaries})
        digest_path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")

    key = "layers" if args.trace else "metrics"
    if len(summaries) == 1:
        metrics = summaries[0][key]
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in s[key].items()}
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
