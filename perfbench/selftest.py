"""Toy-scale self-test of the benchmark itself.

Run from the repository root (about half a minute)::

    python3 perfbench/selftest.py

It checks that the benchmark catches what it claims to catch:

1. digests recorded at the default seed are met on a re-run;
2. one planted wrong digest makes ``failed_frac`` > 0;
3. a traced run reports every per-layer metric;
4. a wrapper planted at a dead lookup site trips the missing-span guard;
5. every end-to-end metric prints by name with its unit;
6. ``BENCHMARK.json`` names the same workloads and metrics as the code;
7. without the program's source the benchmark exits non-zero and
   prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, WORK  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCRATCH = WORK / "selftest"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    check(proc.returncode == 0, f"exit code {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(condition: bool, what: str) -> None:
    if not condition:
        print(f"FAIL: {what}")
        sys.exit(1)


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    digests = SCRATCH / "digests.json"
    toy = ("--scale", "toy", "--digests", str(digests))

    result(bench("--workload", "sweep_mega", "--record-digests", *toy))
    proc = bench("--workload", "sweep_mega", *toy)
    clean = result(proc)
    check(clean["correct"] and clean["failed"] == 0, f"recorded digests not met: {clean}")
    print("ok: recorded digests are met at the default seed")

    for name, unit in END_TO_END:
        check(clean["metrics"].get(name, {}).get("unit") == unit,
              f"{name} missing from the result line or not in {unit}")
        check(any(line.split()[:1] == [name] and f" {unit} " in line
                  for line in proc.stdout.splitlines()),
              f"{name} not printed with its unit")
    check(any(line.split()[:1] == ["failed_frac"] and " ratio " in line
              for line in proc.stdout.splitlines()), "failed_frac not printed")
    print("ok: every end-to-end metric prints by name with its unit")

    recorded = json.loads(digests.read_text())
    cell = next(iter(recorded["sweep_mega"]))
    recorded["sweep_mega"][cell] = "0" * 64
    digests.write_text(json.dumps(recorded))
    planted = result(bench("--workload", "sweep_mega", *toy))
    check(not planted["correct"] and planted["failed"] > 0,
          f"a wrong digest went unnoticed: {planted}")
    print(f"ok: a planted wrong digest gives failed_frac = "
          f"{planted['failed'] / planted['attempted']:.3g}")

    traced = result(bench("--workload", "grid_serial", "--trace", "1", *toy))
    names = {m.name for m in LAYER_METRICS}
    check(set(traced["metrics"]) == names,
          f"traced metrics differ: {sorted(set(traced['metrics']) ^ names)}")
    print("ok: a traced run reports every per-layer metric")

    dead = bench("--workload", "grid_serial", "--trace", "1", "--plant-dead-site", *toy)
    check(dead.returncode == 3 and "spawn.streams" in dead.stderr,
          f"dead-site wrapper not caught (exit {dead.returncode}): {dead.stderr[-500:]}")
    print("ok: a wrapper at a dead lookup site trips the missing-span guard")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([(w["name"], w["why"]) for w in spec["workloads"]]
          == [(w.name, f"{w.why}; {w.layers}") for w in WORKLOADS.values()],
          "BENCHMARK.json workloads differ from workloads.py")
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END),
          "BENCHMARK.json end_to_end differs from run.END_TO_END")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
          == [(m.name, m.unit, m.better) for m in LAYER_METRICS],
          "BENCHMARK.json per_layer differs from tracing.LAYER_METRICS")
    print("ok: BENCHMARK.json matches the code")

    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", "geo_dense", cwd=bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"ran without the program source (exit {proc.returncode})")
    print("ok: without the program source it exits non-zero and prints no result")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
