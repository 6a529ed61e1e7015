"""Host-speed calibration: fixed work timed right beside every repetition.

On a shared host the same code runs up to twice as slow for tens of
seconds at a time, and a process's CPU time slows with its wall time
(the contention is on caches and memory, not on the scheduler).  So
every child times three fixed kernels right after it is ready and
again after each ``run_specs`` call, and reports each call's time
scaled to a reference host by the readings on both sides of it:

    normalised = measured * speed,
    speed = geometric mean over kernels of REFERENCE_S[k] / measured_k.

The kernels are the benchmark's own code and never call the program,
so a change to the program cannot move them.  They cover the kinds of
work the workloads do: small-object method calls and generator draws
(``call``), small integer NumPy products (``numpy``), and dependent
loads through a Python list of 10^6 ints, about 36 MB (``chase``).
Over a few hundred repeated cells on a noisy host this set left the
least host noise in the scaled times of ``dense_geometric`` and
``recursive_bfs`` cells (log standard deviation 0.125 and 0.149, from
0.19 and 0.28 unscaled); a dict-BFS kernel in place of ``chase`` did
worse on ``dense_geometric``.

The kernels run in a helper process (``Calibrator``), never in the
measured one: the ``chase`` list would otherwise count in its peak RSS.
The measured process waits while the helper runs, so one core is busy
at a time.  The helper discards one reading before it reports ready:
in a fresh process the first reading runs 5-10% slow, and that bias
would land on the first call of every repetition.

``REFERENCE_S`` are their median times on a 2-vCPU x86-64 VM with
CPython 3; a normalised second is a second on a host that runs them
that fast.  The raw wall times are reported beside the normalised ones.
"""

from __future__ import annotations

import math
import random
import subprocess
import sys
import time
from typing import Callable, Dict

import numpy as np

#: Median kernel times (s) on the reference host.
REFERENCE_S = {"call": 0.055, "numpy": 0.05, "chase": 0.06}


class _Device:
    __slots__ = ("rng", "p", "heard")

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.p = 0.5
        self.heard = 0

    def step(self) -> bool:
        return self.rng.random() < self.p

    def receive(self, message: bool) -> None:
        if message:
            self.heard += 1
        else:
            self.p *= 0.99


def _call() -> int:
    devices = [_Device(i) for i in range(256)]
    for _ in range(600):
        sent = [d.step() for d in devices]
        for i, d in enumerate(devices):
            d.receive(sent[i - 1])
    return sum(d.heard for d in devices)


_MATRIX = np.random.default_rng(1).integers(0, 2, size=(400, 400)).astype(np.int64)
_CHASE_N = 1_000_000


def _cycle() -> list:
    """A successor list that is one random cycle through every index."""
    order = np.random.default_rng(4).permutation(_CHASE_N)
    successor = np.empty(_CHASE_N, dtype=np.int64)
    successor[order] = np.roll(order, -1)
    return successor.tolist()


_CYCLE: list = []  # filled on first use, in the helper process only


def _numpy() -> int:
    x = np.ones(400, dtype=np.int64)
    for _ in range(300):
        x = (_MATRIX @ x) % 7 + 1
    return int(x.sum())


def _chase() -> int:
    if not _CYCLE:
        _CYCLE.extend(_cycle())
    i = 0
    for _ in range(130_000):
        i = _CYCLE[i]
    return i


KERNELS: Dict[str, Callable[[], int]] = {"call": _call, "numpy": _numpy, "chase": _chase}


def host_speed() -> float:
    """Time every kernel once; reference time over measured time,
    geometric mean over the kernels (1.0 on the reference host, below 1
    on a slower one)."""
    logs = []
    for name, kernel in KERNELS.items():
        start = time.perf_counter()
        kernel()
        logs.append(math.log(REFERENCE_S[name] / (time.perf_counter() - start)))
    return math.exp(sum(logs) / len(logs))


class Calibrator:
    """A helper process that runs ``host_speed()`` on request; closed
    (and waited for) on leaving the ``with`` block."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        if self.proc.stdout.readline() != "ready\n":
            self.close()
            raise RuntimeError("calibration helper did not start")

    def speed(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    _CYCLE.extend(_cycle())
    host_speed()  # the first reading in a fresh process runs slow; discarded
    print("ready", flush=True)
    for _ in sys.stdin:
        print(host_speed(), flush=True)
