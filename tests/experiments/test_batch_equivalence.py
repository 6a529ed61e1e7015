"""Batched-vs-serial equivalence at the experiment layer.

The acceptance contract of replica batching: for every fault preset ×
collision model, R batched replicas produce ``RunResult.to_dict()``
documents **byte-identical** to R per-seed serial runs — and a batched
sweep writes store shards byte-identical to a serial sweep.  Batching
must be invisible everywhere except the wall clock.

The same contract extends to every :class:`ExecutionPolicy` backend:
the heterogeneous mega-batch packing produces byte-identical results,
ledgers, fault streams, and store shards.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import warnings

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    ExecutionPolicy,
    ExperimentSpec,
    batched_algorithm_names,
    mega_algorithm_names,
    run_experiment,
    run_experiment_batch,
    run_experiment_mega,
    run_specs,
    run_sweep,
    spec_hash,
    spec_is_batchable,
    spec_is_mega_batchable,
)
from repro.experiments.runner import (
    DEFAULT_BATCH_REPLICAS,
    DEFAULT_MEGA_BATCH,
    _plan_units,
)
from repro.experiments.spec import COLLISION_MODELS
from repro.radio.faults import named_fault_models

REPLICAS = 8
PRESETS = sorted(named_fault_models())
#: Replica batching opted out: every seed runs alone.
SERIAL = ExecutionPolicy(batch_replicas=1)


def _cell_specs(preset, collision_model, seeds=range(REPLICAS), **overrides):
    base = dict(
        topology="star_of_paths",
        n=24,
        algorithm="decay_bfs",
        algorithm_params={"depth_budget": 24},
        engine="fast",
        collision_model=collision_model,
        fault_model=None if preset == "none" else preset,
    )
    base.update(overrides)
    return [ExperimentSpec(seed=s, **base) for s in seeds]


def _canonical(result):
    return json.dumps(result.to_dict(), sort_keys=True, allow_nan=False)


# ---------------------------------------------------------------------------
# The headline matrix: fault preset x collision model, R=8, byte-for-byte
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("collision_model", COLLISION_MODELS)
@pytest.mark.parametrize("preset", PRESETS)
def test_batched_results_byte_identical(preset, collision_model):
    specs = _cell_specs(preset, collision_model)
    serial = [run_experiment(spec) for spec in specs]
    batched = run_experiment_batch(specs)
    assert len(batched) == len(serial)
    for ref, got in zip(serial, batched):
        assert _canonical(got) == _canonical(ref)
        # Energy counters specifically (they are inside to_dict too, but
        # a failure here names the diverging metric directly).
        assert got.metrics() == ref.metrics()
        assert got.fault_counts() == ref.fault_counts()
        assert got.status == ref.status


# ---------------------------------------------------------------------------
# Runner-level dispatch
# ---------------------------------------------------------------------------

def test_run_specs_batched_equals_opt_out():
    specs = _cell_specs("drop10", "no_cd")
    batched = run_specs(specs, parallel=False)
    serial = run_specs(specs, parallel=False, policy=SERIAL)
    assert tuple(batched.results) == tuple(serial.results)
    assert [r.spec.seed for r in batched] == list(range(REPLICAS))


def test_run_sweep_batches_the_seed_axis():
    """A grid sweep groups its innermost (seed) axis without reordering."""
    batched = run_sweep(["star_of_paths", "grid"], ["decay_bfs"],
                        sizes=16, seeds=4, engine="fast", parallel=False)
    serial = run_sweep(["star_of_paths", "grid"], ["decay_bfs"],
                       sizes=16, seeds=4, engine="fast", parallel=False,
                       policy=SERIAL)
    assert tuple(batched.results) == tuple(serial.results)


def test_plan_units_groups_only_adjacent_batchable_replicas():
    cell = _cell_specs("none", "no_cd", seeds=range(4))
    other = _cell_specs("none", "no_cd", seeds=range(2), n=16)
    reference = _cell_specs("none", "no_cd", seeds=range(2), engine="reference")
    stochastic = _cell_specs("none", "no_cd", seeds=range(2),
                             topology="geometric")
    lb_level = _cell_specs("none", "no_cd", seeds=range(2),
                           algorithm="trivial_bfs")
    specs = cell + other + reference + stochastic + lb_level
    units = _plan_units(specs, None)
    assert [len(u) for u in units] == [4, 2, 1, 1, 1, 1, 1, 1]
    assert [s for unit in units for s in unit] == specs
    # Caps: a per-spec hint bounds group size.
    hinted = [
        dataclasses.replace(s, execution=ExecutionPolicy(batch_replicas=2))
        for s in _cell_specs("none", "no_cd", seeds=range(4))
    ]
    assert [len(u) for u in _plan_units(hinted, None)] == [2, 2]
    # A sweep-wide policy caps too; the per-spec hint wins over it.
    assert [len(u) for u in _plan_units(
        cell, ExecutionPolicy(batch_replicas=3))] == [3, 1]
    assert [len(u) for u in _plan_units(
        hinted, ExecutionPolicy(batch_replicas=3))] == [2, 2]


def test_spec_is_batchable_conditions():
    spec = _cell_specs("none", "no_cd", seeds=[0])[0]
    assert spec_is_batchable(spec)
    assert "decay_bfs" in batched_algorithm_names()
    assert not spec_is_batchable(dataclasses.replace(spec, engine="reference"))
    assert not spec_is_batchable(dataclasses.replace(spec, topology="geometric"))
    assert not spec_is_batchable(
        dataclasses.replace(spec, algorithm="trivial_bfs")
    )


def test_run_experiment_batch_rejects_mixed_cells():
    specs = _cell_specs("none", "no_cd", seeds=range(2))
    other = _cell_specs("none", "no_cd", seeds=[5], n=16)
    with pytest.raises(ConfigurationError, match="identical up to seed"):
        run_experiment_batch(specs + other)
    with pytest.raises(ConfigurationError, match="not\\s+batchable"):
        run_experiment_batch(
            _cell_specs("none", "no_cd", seeds=range(2), engine="reference")
        )


def test_run_experiment_batch_edge_arities():
    assert run_experiment_batch([]) == []
    spec = _cell_specs("none", "no_cd", seeds=[7])[0]
    (single,) = run_experiment_batch([spec])
    assert _canonical(single) == _canonical(run_experiment(spec))


# ---------------------------------------------------------------------------
# The ExecutionPolicy spec hint: execution-only, never identity
# ---------------------------------------------------------------------------

def test_execution_policy_hint_excluded_from_identity():
    plain = ExperimentSpec(topology="path", n=8, algorithm="decay_bfs",
                           engine="fast", seed=1)
    hinted = ExperimentSpec(
        topology="path", n=8, algorithm="decay_bfs", engine="fast", seed=1,
        execution=ExecutionPolicy(backend="megabatch", batch_replicas=4))
    assert hinted == plain
    assert spec_hash(hinted) == spec_hash(plain)
    assert "execution" not in hinted.to_dict()
    assert "batch_replicas" not in hinted.to_dict()
    # Serialization round-trips drop the hint entirely: *what* a spec
    # computes is hash-covered, *how* never is.
    assert ExperimentSpec.from_dict(hinted.to_dict()).execution is None


def test_execution_policy_coerced_and_merged():
    hinted = ExperimentSpec(
        topology="path", n=8, algorithm="decay_bfs", engine="fast", seed=1,
        execution={"backend": "megabatch"})  # plain mapping coerces
    assert hinted.execution == ExecutionPolicy(backend="megabatch")
    merged = ExecutionPolicy(batch_replicas=2).merged_over(
        ExecutionPolicy(backend="megabatch", mega_batch=8))
    assert merged == ExecutionPolicy(backend="megabatch", batch_replicas=2,
                                     mega_batch=8)
    assert merged.wants_mega()


def test_execution_policy_validation():
    for backend in ("cuda", "scipy", "numpy", "numba"):
        with pytest.raises(ConfigurationError, match="backend"):
            ExecutionPolicy(backend=backend)
    for bad in (0, -1, True, 2.5):
        with pytest.raises(ConfigurationError, match="batch_replicas"):
            ExecutionPolicy(batch_replicas=bad)
        with pytest.raises(ConfigurationError, match="mega_batch"):
            ExecutionPolicy(mega_batch=bad)
    with pytest.raises(ConfigurationError, match="unknown"):
        ExecutionPolicy.from_dict({"backend": "megabatch", "gpu": True})
    round_trip = ExecutionPolicy(backend="megabatch", mega_batch=4)
    assert ExecutionPolicy.from_dict(round_trip.to_dict()) == round_trip


@pytest.mark.parametrize("bad", [0, -1, True, 2.5, "8"])
def test_batch_replicas_hint_validated(bad):
    """A spec's execution hint validates its replica cap on coercion."""
    with pytest.raises(ConfigurationError, match="batch_replicas"):
        ExperimentSpec(topology="path", n=8, algorithm="decay_bfs",
                       seed=0, execution={"batch_replicas": bad})


def _removed_replica_cap_spellings():
    from repro.experiments.fabric import run_partition

    spec = _cell_specs("none", "no_cd", seeds=[0])[0]
    doc = dict(spec.to_dict(), batch_replicas=2)
    return {
        "spec-kwarg": (TypeError, lambda: ExperimentSpec(
            topology="path", n=8, algorithm="decay_bfs", seed=0,
            batch_replicas=2)),
        "spec-from_dict": (ConfigurationError,
                           lambda: ExperimentSpec.from_dict(doc)),
        "run_specs": (TypeError, lambda: run_specs(
            [spec], parallel=False, batch_replicas=1)),
        "run_sweep": (TypeError, lambda: run_sweep(
            ["path"], ["decay_bfs"], sizes=8, seeds=1, parallel=False,
            batch_replicas=1)),
        "run_partition": (TypeError, lambda: run_partition(
            [spec], 0, 1, store="unused", parallel=False,
            batch_replicas=1)),
    }


@pytest.mark.parametrize("spelling", sorted(_removed_replica_cap_spellings()))
def test_removed_replica_cap_spelling_fails_loudly(spelling):
    """The replica cap has one spelling, the policy's; the others raise
    at once, with no deprecation warning and no work done."""
    error, call = _removed_replica_cap_spellings()[spelling]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match="batch_replicas"):
            call()


def test_default_batch_replicas_is_sane():
    assert isinstance(DEFAULT_BATCH_REPLICAS, int)
    assert DEFAULT_BATCH_REPLICAS >= 2


def test_adopted_slot_view_is_accounting_only():
    """After a lane is adopted, ctx.network() fails loudly (no drivable
    engine exists inside a batched run) and a second adoption is refused."""
    from repro.experiments.registry import BatchRunContext, RunContext
    from repro.radio.energy import EnergyLedger

    spec = _cell_specs("none", "no_cd", seeds=[0])[0]
    graph = spec.build_graph()
    ctxs = [RunContext(spec=spec, graph=graph, ledger=EnergyLedger())
            for _ in range(2)]
    bctx = BatchRunContext(ctxs)
    net = bctx.batched_network()
    assert bctx.batched_network() is net  # built once
    for ctx in ctxs:
        with pytest.raises(ConfigurationError, match="batched adapters"):
            ctx.network()
        with pytest.raises(ConfigurationError, match="at most once"):
            ctx.adopt_slot_view(net.lane(0))


# ---------------------------------------------------------------------------
# Store byte-identity: a batched sweep writes the same shards
# ---------------------------------------------------------------------------

def _shard_bytes(store_dir):
    return {
        p.name: p.read_bytes()
        for p in sorted(pathlib.Path(store_dir, "shards").glob("*.jsonl"))
    }


def test_batched_sweep_store_byte_identical(tmp_path):
    specs = _cell_specs("lossy_mixed", "receiver_cd")
    run_specs(specs, parallel=False, store=str(tmp_path / "serial"),
              policy=SERIAL)
    run_specs(specs, parallel=False, store=str(tmp_path / "batched"))
    assert _shard_bytes(tmp_path / "serial") == _shard_bytes(tmp_path / "batched")


def test_batched_resume_store_byte_identical(tmp_path):
    """Completed cells drop out of the batch group; bytes still match."""
    specs = _cell_specs("drop30", "no_cd")
    run_specs(specs, parallel=False, store=str(tmp_path / "reference"),
              policy=SERIAL)
    resumed = str(tmp_path / "resumed")
    run_specs(specs[:5], parallel=False, store=resumed)
    sweep = run_specs(specs, parallel=False, store=resumed)
    assert len(sweep) == REPLICAS
    assert [r.spec.seed for r in sweep] == list(range(REPLICAS))
    assert _shard_bytes(tmp_path / "reference") == _shard_bytes(resumed)


# ---------------------------------------------------------------------------
# Backend equivalence: every backend x fault preset x collision model
# ---------------------------------------------------------------------------

def _hetero_specs(preset, collision_model, seeds=3):
    """A heterogeneous mini-grid: three topologies, different sizes."""
    specs = []
    for topology, n in [("grid", 25), ("star", 17), ("cycle", 24)]:
        specs.extend(_cell_specs(preset, collision_model, seeds=range(seeds),
                                 topology=topology, n=n))
    return specs


#: Every way a sweep can pack its cells, with the unit sizes it plans
#: for :func:`_hetero_specs` at two seeds (three members of two lanes):
#: default replica batching, one mega unit, mega units cut by a lane
#: cap, and one mega unit built from single-replica members.
BACKEND_POLICIES = {
    "None": (ExecutionPolicy(), [2, 2, 2]),
    "megabatch": (ExecutionPolicy(backend="megabatch"), [6]),
    "megabatch-cap4": (ExecutionPolicy(backend="megabatch", mega_batch=4),
                       [4, 2]),
    "megabatch-replicas1": (ExecutionPolicy(backend="megabatch",
                                            batch_replicas=1), [6]),
}


@pytest.mark.parametrize("collision_model", COLLISION_MODELS)
@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("backend", sorted(BACKEND_POLICIES))
def test_backend_byte_identical_grid(backend, preset, collision_model):
    """The headline backend matrix: byte-for-byte against per-seed serial.

    Covers the default replica batching and the mega-batch packing
    (uncapped, lane-capped, and over single-replica members), across
    every fault preset and collision model, on a heterogeneous spec
    stream.
    """
    policy, unit_sizes = BACKEND_POLICIES[backend]
    specs = _hetero_specs(preset, collision_model, seeds=2)
    assert [len(u) for u in _plan_units(specs, policy)] == unit_sizes
    serial = run_specs(specs, parallel=False, policy=SERIAL)
    alt = run_specs(specs, parallel=False, policy=policy)
    assert len(alt) == len(serial)
    for ref, got in zip(serial, alt):
        assert _canonical(got) == _canonical(ref)
        assert got.fault_counts() == ref.fault_counts()


# ---------------------------------------------------------------------------
# Mega batching specifics: planner, dispatcher, stores
# ---------------------------------------------------------------------------

def test_spec_is_mega_batchable_conditions():
    spec = _cell_specs("none", "no_cd", seeds=[0])[0]
    assert spec_is_mega_batchable(spec)
    assert "decay_bfs" in mega_algorithm_names()
    assert not spec_is_mega_batchable(
        dataclasses.replace(spec, engine="reference"))
    assert not spec_is_mega_batchable(
        dataclasses.replace(spec, topology="geometric"))
    assert not spec_is_mega_batchable(
        dataclasses.replace(spec, algorithm="trivial_bfs"))


def test_plan_units_mega_merges_adjacent_cells():
    mega = ExecutionPolicy(backend="megabatch")
    specs = _hetero_specs("none", "no_cd", seeds=3)
    # Without the policy: three replica-batched units.
    assert [len(u) for u in _plan_units(specs, None)] == [3, 3, 3]
    # With it: one heterogeneous unit spanning all nine lanes.
    assert [len(u) for u in _plan_units(specs, mega)] == [9]
    # The mega_batch cap bounds *total* lanes, at unit granularity.
    capped = ExecutionPolicy(backend="megabatch", mega_batch=6)
    assert [len(u) for u in _plan_units(specs, capped)] == [6, 3]
    # Non-mega-batchable cells break the merged run.
    blocker = _cell_specs("none", "no_cd", seeds=[0],
                          algorithm="trivial_bfs")
    mixed = specs[:3] + blocker + specs[3:]
    assert [len(u) for u in _plan_units(mixed, mega)] == [3, 1, 6]
    # Order is always preserved exactly.
    assert [s for u in _plan_units(mixed, mega) for s in u] == mixed


def test_run_experiment_mega_validates_input():
    assert run_experiment_mega([]) == []
    specs = _hetero_specs("none", "no_cd", seeds=2)
    with pytest.raises(ConfigurationError, match="one algorithm"):
        run_experiment_mega(
            specs + _cell_specs("none", "no_cd", seeds=[0],
                                algorithm="trivial_bfs"))
    with pytest.raises(ConfigurationError, match="not mega-batchable"):
        run_experiment_mega(
            specs[:2]
            + _cell_specs("none", "no_cd", seeds=range(2), n=16,
                          engine="reference"))
    # A single homogeneous group degenerates to plain replica batching.
    single = run_experiment_mega(specs[:2])
    serial = [run_experiment(s) for s in specs[:2]]
    assert [_canonical(r) for r in single] == [_canonical(r) for r in serial]


def test_mega_sweep_store_byte_identical(tmp_path):
    specs = _hetero_specs("lossy_mixed", "receiver_cd", seeds=2)
    run_specs(specs, parallel=False, store=str(tmp_path / "serial"),
              policy=SERIAL)
    run_specs(specs, parallel=False, store=str(tmp_path / "mega"),
              policy=ExecutionPolicy(backend="megabatch"))
    assert _shard_bytes(tmp_path / "serial") == _shard_bytes(tmp_path / "mega")


def test_mega_resume_store_byte_identical(tmp_path):
    """Cells completed serially drop out of the mega unit; bytes match."""
    specs = _hetero_specs("drop30", "no_cd", seeds=2)
    run_specs(specs, parallel=False, store=str(tmp_path / "reference"),
              policy=SERIAL)
    resumed = str(tmp_path / "resumed")
    run_specs(specs[:4], parallel=False, store=resumed, policy=SERIAL)
    sweep = run_specs(specs, parallel=False, store=resumed,
                      policy=ExecutionPolicy(backend="megabatch"))
    assert len(sweep) == len(specs)
    assert _shard_bytes(tmp_path / "reference") == _shard_bytes(resumed)


def test_default_mega_batch_is_sane():
    assert isinstance(DEFAULT_MEGA_BATCH, int)
    assert DEFAULT_MEGA_BATCH >= DEFAULT_BATCH_REPLICAS


# ---------------------------------------------------------------------------
# CLI surface: --backend / --batch-replicas shared by run, sweep, worker
# ---------------------------------------------------------------------------

def test_cli_backend_flag_uniform_across_subcommands():
    from repro.experiments.__main__ import _build_parser, _policy_from_args

    parser = _build_parser()
    common = ["--topologies", "grid", "--algorithms", "decay_bfs"]
    extra = {
        "run": [],
        "sweep": ["--out", "ignored"],
        "worker": ["--out", "ignored", "--worker-id", "0",
                   "--num-workers", "1"],
    }
    for command, args in extra.items():
        ns = parser.parse_args(
            [command, *common, *args, "--backend", "megabatch",
             "--batch-replicas", "4"])
        assert ns.backend == "megabatch" and ns.batch_replicas == 4
        assert _policy_from_args(ns) == ExecutionPolicy(
            backend="megabatch", batch_replicas=4)
        ns = parser.parse_args([command, *common, *args])
        assert _policy_from_args(ns) is None
    for backend in ("cuda", "numpy", "numba"):
        with pytest.raises(SystemExit):
            parser.parse_args(["run", *common, "--backend", backend])


def test_cli_run_backend_byte_identical(tmp_path, capsys):
    from repro.experiments.__main__ import main

    common = ["run", "--topologies", "grid", "star", "--algorithms",
              "decay_bfs", "--sizes", "16", "--seeds", "2", "--engine",
              "fast", "--serial"]
    plain, mega = tmp_path / "plain.json", tmp_path / "mega.json"
    assert main([*common, "--batch-replicas", "1", "--json", str(plain)]) == 0
    assert main([*common, "--backend", "megabatch", "--json", str(mega)]) == 0
    capsys.readouterr()
    assert plain.read_bytes() == mega.read_bytes()
