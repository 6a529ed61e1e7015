"""The slot kernel: exact counts/codes, CSR compilation, mega packing.

The kernel computes exact int64 counts/codes, so it must agree
**bitwise** with a plain per-row loop over the CSR arrays on any
topology and any transmitter set.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.radio import topology
from repro.radio.engine import make_network
from repro.radio.engine_registry import (
    available_engines,
    get_engine,
    register_engine,
)
from repro.radio.kernels import SCIPY_KERNEL, CSRAdjacency, MegaBatchPlan

TOPOLOGIES = [("grid", 25), ("star", 17), ("barbell", 18), ("wheel", 20),
              ("path", 12), ("complete", 9)]


def _adjacency(name, n):
    graph = topology.scenario(name, n)
    index = {v: i for i, v in enumerate(graph.nodes)}
    return CSRAdjacency.from_graph(graph, index)


def _tx_sets(adj, seed=0):
    """A spread of transmitter sets: empty, singleton, random, full."""
    rng = np.random.default_rng(seed)
    full = np.arange(adj.n, dtype=np.int64)
    some = np.sort(rng.choice(adj.n, size=max(1, adj.n // 3), replace=False))
    return [np.zeros(0, dtype=np.int64), full[:1], some.astype(np.int64), full]


def _loop_counts_codes(adj, tx):
    """Reference: walk each transmitter's CSR row, one neighbor at a time."""
    counts = np.zeros(adj.n, dtype=np.int64)
    codes = np.zeros(adj.n, dtype=np.int64)
    for t in tx.tolist():
        for v in adj.row(t).tolist():
            counts[v] += 1
            codes[v] += t + 1
    return counts, codes


# ---------------------------------------------------------------------------
# Bit-identity against the per-row loop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,n", TOPOLOGIES)
def test_kernels_agree_bitwise(name, n):
    adj = _adjacency(name, n)
    state = SCIPY_KERNEL.prepare(adj)
    for tx in _tx_sets(adj):
        counts, codes = SCIPY_KERNEL.counts_codes(state, tx)
        ref_counts, ref_codes = _loop_counts_codes(adj, tx)
        assert counts.dtype == np.int64 and codes.dtype == np.int64
        np.testing.assert_array_equal(counts, ref_counts)
        np.testing.assert_array_equal(codes, ref_codes)


def test_counts_codes_many_matches_single_calls():
    adj = _adjacency("grid", 36)
    state = SCIPY_KERNEL.prepare(adj)
    tx_lists = _tx_sets(adj, seed=3)
    many = SCIPY_KERNEL.counts_codes_many(state, tx_lists)
    assert len(many) == len(tx_lists)
    for (counts, codes), tx in zip(many, tx_lists):
        ref_counts, ref_codes = SCIPY_KERNEL.counts_codes(state, tx)
        np.testing.assert_array_equal(counts, ref_counts)
        np.testing.assert_array_equal(codes, ref_codes)


def test_unique_sender_decode_invariant():
    """Where count == 1, code - 1 is the unique transmitting neighbor."""
    adj = _adjacency("star", 17)
    state = SCIPY_KERNEL.prepare(adj)
    tx = np.array([1, 2], dtype=np.int64)  # two leaves transmit
    counts, codes = SCIPY_KERNEL.counts_codes(state, tx)
    hub = counts == 2
    assert counts[0] == 2 and hub.sum() == 1  # only the hub hears both
    unique = counts == 1
    assert not unique.any() or np.isin(codes[unique] - 1, tx).all()


def _edge_case_graph(name):
    """Shapes the gather+bincount kernel must get right."""
    import networkx as nx

    if name == "isolated":
        graph = nx.empty_graph(12)
        graph.add_edges_from([(1, 2), (2, 3), (7, 8)])  # 0, 4-6, 9-11 isolated
        return graph
    if name == "hub":
        return topology.scenario("star", 40)  # hub of degree n - 1
    if name == "complete":
        return topology.scenario("complete", 15)
    if name == "tuples":
        graph = topology.scenario("grid", 36)
        return nx.relabel_nodes(graph, {v: (v // 6, v % 6) for v in graph})
    return topology.scenario(name, 30)


EDGE_CASES = ("isolated", "hub", "complete", "tuples", "barbell")


def _compiled(name):
    graph = _edge_case_graph(name)
    return CSRAdjacency.from_graph(
        graph, {v: i for i, v in enumerate(graph.nodes)}
    )


def _random_subsets(adj, rng, trials=12):
    """Random transmitter subsets of every size, in random order, plus
    the empty list."""
    subsets = [np.zeros(0, dtype=np.int64)]
    for _ in range(trials):
        size = int(rng.integers(0, adj.n + 1))
        subsets.append(rng.choice(adj.n, size=size, replace=False).astype(np.int64))
    return subsets


@pytest.mark.parametrize("name", EDGE_CASES)
def test_random_subsets_agree_with_row_loop(name):
    adj = _compiled(name)
    state = SCIPY_KERNEL.prepare(adj)
    subsets = _random_subsets(adj, np.random.default_rng(len(name)))
    many = SCIPY_KERNEL.counts_codes_many(state, subsets)
    assert len(many) == len(subsets)
    for tx, (many_counts, many_codes) in zip(subsets, many):
        ref_counts, ref_codes = _loop_counts_codes(adj, tx)
        counts, codes = SCIPY_KERNEL.counts_codes(state, tx)
        for got in (counts, codes, many_counts, many_codes):
            assert got.dtype == np.int64 and got.shape == (adj.n,)
        np.testing.assert_array_equal(counts, ref_counts)
        np.testing.assert_array_equal(codes, ref_codes)
        np.testing.assert_array_equal(many_counts, ref_counts)
        np.testing.assert_array_equal(many_codes, ref_codes)


def test_empty_batch_and_empty_lanes():
    adj = _compiled("hub")
    state = SCIPY_KERNEL.prepare(adj)
    assert SCIPY_KERNEL.counts_codes_many(state, []) == []
    empty = np.zeros(0, dtype=np.int64)
    for counts, codes in SCIPY_KERNEL.counts_codes_many(state, [empty, empty]):
        assert not counts.any() and not codes.any()
        assert counts.shape == codes.shape == (adj.n,)


def test_isolated_vertices_hear_nothing():
    adj = _compiled("isolated")
    counts, codes = SCIPY_KERNEL.counts_codes(
        SCIPY_KERNEL.prepare(adj), np.arange(adj.n, dtype=np.int64)
    )
    for i in (0, 4, 5, 6, 9, 10, 11):
        assert counts[i] == 0 and codes[i] == 0


def test_hub_sums_every_leaf_code():
    adj = _compiled("hub")
    leaves = np.arange(1, adj.n, dtype=np.int64)
    counts, codes = SCIPY_KERNEL.counts_codes(SCIPY_KERNEL.prepare(adj), leaves)
    assert counts[0] == adj.n - 1
    assert codes[0] == int((leaves + 1).sum())
    assert not counts[1:].any()


def test_prepare_rejects_inexact_code_sums():
    """Code sums reach n * n; float64 weights are exact only below 2**53."""
    huge = CSRAdjacency(
        n=2 ** 27, indptr=np.zeros(1, dtype=np.int64),
        indices=np.zeros(0, dtype=np.int64),
    )
    with pytest.raises(ConfigurationError, match="exact"):
        SCIPY_KERNEL.prepare(huge)


def test_mega_plan_edge_cases_match_per_member_loops():
    adjs = [_compiled(name) for name in EDGE_CASES]
    plan = MegaBatchPlan(adjs)
    rng = np.random.default_rng(11)
    requests = [
        (m, tx) for m, adj in enumerate(adjs)
        for tx in _random_subsets(adj, rng, trials=4)
    ]
    rng.shuffle(requests)
    resolved = plan.counts_codes_many(requests)
    for (m, tx), (counts, codes) in zip(requests, resolved):
        ref_counts, ref_codes = _loop_counts_codes(adjs[m], tx)
        assert counts.shape == (adjs[m].n,)
        np.testing.assert_array_equal(counts, ref_counts)
        np.testing.assert_array_equal(codes, ref_codes)


# ---------------------------------------------------------------------------
# CSR compilation
# ---------------------------------------------------------------------------

def test_csr_adjacency_matches_scipy_layout():
    scipy_sparse = pytest.importorskip("scipy.sparse")
    import networkx as nx

    graph = topology.scenario("grid", 25)
    index = {v: i for i, v in enumerate(graph.nodes)}
    adj = _adjacency("grid", 25)
    ref = scipy_sparse.csr_array(
        nx.to_scipy_sparse_array(graph, nodelist=list(index), format="csr",
                                 dtype=np.int64)
    )
    ref.sort_indices()
    np.testing.assert_array_equal(adj.indptr, ref.indptr)
    np.testing.assert_array_equal(adj.indices, ref.indices)
    assert adj.nnz == 2 * graph.number_of_edges()


# ---------------------------------------------------------------------------
# Block-diagonal mega packing
# ---------------------------------------------------------------------------

def test_mega_plan_slices_equal_per_member_products():
    adjs = [_adjacency(name, n) for name, n in TOPOLOGIES]
    plan = MegaBatchPlan(adjs)
    states = [SCIPY_KERNEL.prepare(adj) for adj in adjs]
    requests = []
    for m, adj in enumerate(adjs):
        for tx in _tx_sets(adj, seed=m):
            requests.append((m, tx))
    resolved = plan.counts_codes_many(requests)
    assert len(resolved) == len(requests)
    for (m, tx), (counts, codes) in zip(requests, resolved):
        ref_counts, ref_codes = SCIPY_KERNEL.counts_codes(states[m], tx)
        np.testing.assert_array_equal(counts, ref_counts)
        np.testing.assert_array_equal(codes, ref_codes)


def test_mega_plan_order_independent():
    adjs = [_adjacency("grid", 25), _adjacency("star", 17)]
    plan = MegaBatchPlan(adjs)
    a = (0, np.array([0, 3], dtype=np.int64))
    b = (1, np.array([1], dtype=np.int64))
    ab = plan.counts_codes_many([a, b])
    ba = plan.counts_codes_many([b, a])
    for (ca, xa), (cb, xb) in zip(ab, reversed(ba)):
        np.testing.assert_array_equal(ca, cb)
        np.testing.assert_array_equal(xa, xb)


# ---------------------------------------------------------------------------
# One kernel: the selection surface is gone
# ---------------------------------------------------------------------------

def _kernel_designations():
    from repro.radio.batch_engine import MegaBatchedNetwork, ReplicaBatchedNetwork
    from repro.radio.fast_engine import CompiledTopology, FastRadioNetwork

    graph = topology.scenario("path", 6)
    return {
        "CompiledTopology": lambda: CompiledTopology(graph, kernel="numpy"),
        "FastRadioNetwork": lambda: FastRadioNetwork(graph, kernel="numpy"),
        "ReplicaBatchedNetwork": lambda: ReplicaBatchedNetwork(
            graph, 1, kernel="numpy"),
        "MegaBatchedNetwork": lambda: MegaBatchedNetwork(
            [ReplicaBatchedNetwork(graph, 1)], kernel="numpy"),
        "MegaBatchPlan": lambda: MegaBatchPlan(
            [_adjacency("path", 6)], kernel="numpy"),
    }


@pytest.mark.parametrize("owner", sorted(_kernel_designations()))
def test_kernel_parameter_removed(owner):
    with pytest.raises(TypeError, match="kernel"):
        _kernel_designations()[owner]()


@pytest.mark.parametrize("name", [
    "SlotKernel", "register_kernel", "get_kernel", "kernel_names",
    "default_kernel", "resolve_kernel",
])
def test_kernel_registry_removed(name):
    import repro.radio.kernels as kernels

    with pytest.raises(AttributeError, match=name):
        getattr(kernels, name)


@pytest.mark.parametrize("module", ["numpy_csr", "numba_csr"])
def test_alternative_kernel_modules_removed(module):
    import importlib

    with pytest.raises(ModuleNotFoundError, match=module):
        importlib.import_module(f"repro.radio.kernels.{module}")


def test_scipy_kernel_is_unconditional():
    """No availability probe and no fallback: scipy is a hard dependency."""
    assert not hasattr(type(SCIPY_KERNEL), "available")


# ---------------------------------------------------------------------------
# Engine registry
# ---------------------------------------------------------------------------

def test_engine_registry_surface():
    assert set(available_engines()) >= {"reference", "fast"}
    for name in available_engines():
        assert get_engine(name).name == name
    with pytest.raises(ConfigurationError, match="unknown engine"):
        get_engine("warp")
    # The registry is the one lookup: no module-level ENGINES dict.
    import repro.radio as radio
    from repro.radio import engine as engine_mod

    for module in (radio, engine_mod):
        with pytest.raises(AttributeError, match="ENGINES"):
            module.ENGINES


def test_register_engine_validation():
    class Nameless:
        pass

    with pytest.raises(ConfigurationError, match="name"):
        register_engine(Nameless)
    with pytest.raises(ConfigurationError, match="already registered"):

        @register_engine
        class Duplicate:
            name = "fast"

    from repro.radio import engine_registry

    @register_engine
    class Custom:
        name = "test-custom-engine"

    try:
        assert get_engine("test-custom-engine") is Custom

        @register_engine(overwrite=True)
        class Replacement:
            name = "test-custom-engine"

        assert get_engine("test-custom-engine") is Replacement
    finally:
        engine_registry._ENGINES.pop("test-custom-engine", None)


def test_make_network_uses_registry():
    graph = topology.scenario("path", 6)
    assert make_network(graph, engine="fast").name == "fast"
    assert make_network(graph, engine="reference").name == "reference"
    with pytest.raises(ConfigurationError, match="unknown engine"):
        make_network(graph, engine="warp")
