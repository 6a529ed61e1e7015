"""Ablation benchmarks for Recursive-BFS's design choices.

All runs use the charged shortcuts of ARCHITECTURE.md, "Charged
shortcuts on the LB tier".

- **beta sweep**: the stage length `beta^{-1}` trades clustering cost
  (`O~(beta^{-1})` per vertex) against per-stage wavefront work — the
  `O~(beta^{-1})` additive term of recurrence (3).
- **recursion depth**: L = 0 (trivial), 1, 2 — at laptop scale each
  extra level multiplies cost by the simulation overhead (the paper's
  `O~(1)` per level), which is why Theorem 4.1 caps L at
  `sqrt(log D / log log n)`.
- **Z-sequence ablation**: replacing the ruler sequence with a constant
  schedule (always the minimum Z = alpha) starves distant clusters of
  long-range estimates and forces more wake-ups — the measured cost of
  removing the paper's key scheduling idea.
"""

from __future__ import annotations

import pytest

from repro.analysis import format_table
from repro.core import BFSParameters, RecursiveBFS
from repro.primitives import PhysicalLBGraph
from repro.radio import topology

from conftest import run_once


def _energy(n, beta, depth, seed=1):
    g = topology.path_graph(n)
    lbg = PhysicalLBGraph(g, seed=0)
    params = BFSParameters(beta=beta, max_depth=depth)
    rb = RecursiveBFS(params, seed=seed)
    labels = rb.compute(lbg, [0], n - 1)
    assert all(labels[v] == v for v in g)
    return lbg.ledger.max_lb(), rb.stats


def test_beta_ablation(benchmark):
    def run():
        rows = []
        for inv_beta in (4, 8, 16, 32):
            energy, stats = _energy(600, 1.0 / inv_beta, 1)
            rows.append(
                [
                    f"1/{inv_beta}",
                    energy,
                    max(stats.wavefront_lb.values()),
                    stats.stage_count,
                    stats.max_awake_stages(),
                ]
            )
        return rows

    rows = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["beta", "max LB total", "max LB wavefront", "stages", "awake"],
            rows,
            title="Ablation: beta sweep (600-path, L=1)",
        )
    )
    # More stages with larger beta; fewer with smaller.
    stages = [r[3] for r in rows]
    assert stages == sorted(stages, reverse=True)


def test_depth_ablation(benchmark):
    def run():
        rows = []
        g = topology.path_graph(600)
        # L = 0 baseline: trivial BFS.
        from repro.core import trivial_bfs

        lbg = PhysicalLBGraph(g, seed=0)
        trivial_bfs(lbg, [0], 599)
        rows.append(["0 (trivial)", lbg.ledger.max_lb()])
        for depth in (1, 2):
            energy, _ = _energy(600, 1 / 8, depth)
            rows.append([str(depth), energy])
        return rows

    rows = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["recursion depth L", "max LB energy"],
            rows,
            title="Ablation: recursion depth (600-path, beta=1/8)",
        )
    )
    # At laptop scale each level multiplies the overhead: L=2 > L=1.
    assert rows[2][1] > rows[1][1]


def test_z_sequence_ablation(benchmark):
    """Constant-Z schedule vs the ruler schedule: wake-up counts."""

    def run():
        from repro.core.z_sequence import ZSequence

        class ConstantZ(ZSequence):
            def __getitem__(self, i):
                if i == 0:
                    return self.d_star
                return self.alpha  # always the minimum

        import repro.core.recursive_bfs as rbfs_mod

        g = topology.path_graph(600)

        def run_with(zclass):
            original = rbfs_mod.ZSequence
            rbfs_mod.ZSequence = zclass
            try:
                lbg = PhysicalLBGraph(g, seed=0)
                params = BFSParameters(beta=1 / 8, max_depth=1)
                rb = RecursiveBFS(params, seed=1)
                labels = rb.compute(lbg, [0], 599)
                assert all(labels[v] == v for v in g)
                return lbg.ledger.max_lb(), rb.stats.max_awake_stages()
            finally:
                rbfs_mod.ZSequence = original

        ruler = run_with(ZSequence)
        constant = run_with(ConstantZ)
        return ruler, constant

    (ruler_e, ruler_awake), (const_e, const_awake) = run_once(benchmark, run)
    print(
        f"\nAblation: Z-schedule (600-path) — ruler: energy={ruler_e}, "
        f"max awake={ruler_awake}; constant-Z: energy={const_e}, "
        f"max awake={const_awake}"
    )
    # The constant schedule loses long-range refreshes: strictly more
    # awake stages (and the labels stay correct either way).
    assert const_awake >= ruler_awake
