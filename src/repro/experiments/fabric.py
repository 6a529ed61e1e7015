"""Distributed sweep fabric: spec-hash-ring sharding across workers.

One machine's sweep becomes a fleet's by partitioning the grid, not by
coordinating it: every cell's canonical :func:`~repro.experiments.results.spec_hash`
is a point on a 2^64 identifier circle, every worker owns the arcs
preceding its virtual nodes, and ownership is the Chord successor
function — a *pure function* of ``(spec_hash, ring membership)``.  Two
hosts that agree on the membership list agree on the entire assignment
without exchanging a single message, so there is no coordinator, no
lease service, and nothing to crash except workers themselves.

The fabric rests on guarantees the rest of the stack already provides:

- **No shifted seeds.**  Per-cell seeds are a pure function of grid
  position (:func:`~repro.experiments.runner.iter_grid`), baked into
  each :class:`~repro.experiments.spec.ExperimentSpec` *before*
  partitioning — so no assignment, re-assignment, or worker loss can
  ever change what any cell computes.
- **No duplicates.**  A ring assigns each hash to exactly one member,
  so workers sharing a membership view never run the same cell; after
  churn, a cell a dead worker already completed may legitimately run
  again on its new owner, and the byte-identical replay dedupes at
  merge time (:meth:`~repro.experiments.store.SweepStore.merge`).
- **Byte-identical union.**  Results are deterministic and store
  records canonical, so merging the workers' shard stores — in any
  order — yields a store byte-identical (after a per-shard line sort)
  to the same grid swept serially on one host; a conflict means a real
  determinism violation and raises rather than corrupting the union.

Churn tolerance is a re-run, not a protocol: when a worker dies, the
survivors recompute ownership on the ring *without* the dead member
(:meth:`HashRing.without` — consistent hashing moves only the dead
member's arcs) and re-run exactly the orphaned cells their local store
does not already hold.  This mirrors the Chord repair discipline of
"How to Make Chord Correct" (see PAPERS.md): correctness never depends
on a membership view being fresh, only on each cell eventually having
a live owner.

Typical use — see also the ``worker``/``merge`` CLI subcommands and
``scripts/fabric_sim.py``::

    specs = list(iter_grid(["grid", "expander"], ["decay_bfs"], seeds=4))

    # On host i of W (no coordination needed):
    run_partition(specs, worker=i, ring=W, store=f"shards/w{i}")

    # Anywhere, afterwards:
    merged = SweepStore("merged")
    for i in range(W):
        merged.merge(f"shards/w{i}")
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError
from .results import spec_hash
from .runner import SweepResult, run_specs
from .spec import ExecutionPolicy, ExperimentSpec
from .store import SweepStore

#: Virtual nodes per ring member.  More virtual nodes smooth the arc
#: lengths (load imbalance shrinks like 1/sqrt(members * virtual
#: nodes)); the default keeps assignment cheap while bounding skew to a
#: few percent for small fleets.
DEFAULT_VIRTUAL_NODES = 64

#: Hex digits of a hash used as its ring position (64 bits — collisions
#: between distinct spec hashes are astronomically unlikely, and ties
#: are still resolved deterministically by the sorted point list).
_RING_HEX_DIGITS = 16


def member_name(index: int) -> str:
    """The canonical ring-member name of worker ``index`` (``0``-based).

    Workers launched as "worker ``i`` of ``W``" all derive the same
    names, so their rings agree without exchanging configuration.
    """
    if not isinstance(index, int) or isinstance(index, bool) or index < 0:
        raise ConfigurationError(
            f"worker index must be a non-negative int, got {index!r}"
        )
    return f"worker-{index:02d}"


def _ring_position(token: str) -> int:
    """A token's position on the identifier circle (pure function)."""
    digest = hashlib.sha256(token.encode("utf-8")).hexdigest()
    return int(digest[:_RING_HEX_DIGITS], 16)


class HashRing:
    """A deterministic consistent-hash ring over named workers.

    Each member is placed at ``virtual_nodes`` pseudo-random points
    (the SHA-256 of ``"<member>#<v>"``); a spec hash is owned by the
    member of the first point at or after the hash's own position,
    wrapping at the top — the Chord successor discipline.  Construction
    is a pure function of ``(sorted members, virtual_nodes)``: member
    order, host, and process never matter, so independently-launched
    workers always agree on the assignment.

    Removing a member (:meth:`without`) re-assigns *only* that member's
    arcs: every cell owned by a survivor keeps its owner.  This is the
    property that makes churn cheap — a rebalance pass re-runs orphaned
    cells and nothing else.
    """

    def __init__(
        self,
        members: Iterable[str],
        virtual_nodes: int = DEFAULT_VIRTUAL_NODES,
    ) -> None:
        member_list = list(members)
        if not member_list:
            raise ConfigurationError("a hash ring needs at least one member")
        for member in member_list:
            if not isinstance(member, str) or not member:
                raise ConfigurationError(
                    f"ring members must be non-empty strings, got {member!r}"
                )
        if len(set(member_list)) != len(member_list):
            raise ConfigurationError(
                f"ring members must be unique, got {member_list!r}"
            )
        if (
            not isinstance(virtual_nodes, int)
            or isinstance(virtual_nodes, bool)
            or virtual_nodes < 1
        ):
            raise ConfigurationError(
                f"virtual_nodes must be a positive int, got {virtual_nodes!r}"
            )
        #: The membership, canonically sorted; the ring is a pure
        #: function of this tuple and ``virtual_nodes``.
        self.members: Tuple[str, ...] = tuple(sorted(member_list))
        self.virtual_nodes = virtual_nodes
        points: List[Tuple[int, str]] = [
            (_ring_position(f"{member}#{v}"), member)
            for member in self.members
            for v in range(virtual_nodes)
        ]
        points.sort()
        self._positions = [position for position, _ in points]
        self._owners = [member for _, member in points]

    @classmethod
    def from_count(
        cls, num_workers: int, virtual_nodes: int = DEFAULT_VIRTUAL_NODES
    ) -> "HashRing":
        """The canonical ``W``-worker ring (members via :func:`member_name`)."""
        if (
            not isinstance(num_workers, int)
            or isinstance(num_workers, bool)
            or num_workers < 1
        ):
            raise ConfigurationError(
                f"num_workers must be a positive int, got {num_workers!r}"
            )
        return cls(
            [member_name(i) for i in range(num_workers)],
            virtual_nodes=virtual_nodes,
        )

    def without(self, *members: str) -> "HashRing":
        """The ring after the named members left (churn/rebalance view).

        Only the departed members' cells change owner — survivors keep
        every cell they already owned, so re-running the new assignment
        against an existing shard store re-executes orphans only.
        """
        gone = set(members)
        unknown = gone - set(self.members)
        if unknown:
            raise ConfigurationError(
                f"cannot remove non-members {sorted(unknown)} from ring "
                f"{list(self.members)}"
            )
        remaining = [m for m in self.members if m not in gone]
        if not remaining:
            raise ConfigurationError(
                "cannot remove every member: a ring needs at least one"
            )
        return HashRing(remaining, virtual_nodes=self.virtual_nodes)

    def owner(self, h: str) -> str:
        """The member owning spec hash ``h`` (its ring successor)."""
        try:
            position = int(h[:_RING_HEX_DIGITS], 16)
        except (ValueError, TypeError):
            raise ConfigurationError(
                f"not a spec hash: {h!r} (expected hex digits)"
            ) from None
        index = bisect.bisect_left(self._positions, position)
        return self._owners[index % len(self._owners)]

    def owner_of(self, spec: ExperimentSpec) -> str:
        """The member owning a spec (by its canonical hash)."""
        return self.owner(spec_hash(spec))

    def __contains__(self, member: object) -> bool:
        return member in self.members

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HashRing):
            return NotImplemented
        return (
            self.members == other.members
            and self.virtual_nodes == other.virtual_nodes
        )

    def __hash__(self) -> int:
        return hash((self.members, self.virtual_nodes))

    def __repr__(self) -> str:
        return (
            f"HashRing(members={list(self.members)!r}, "
            f"virtual_nodes={self.virtual_nodes})"
        )


def _coerce_ring(ring: Union[int, HashRing]) -> HashRing:
    return HashRing.from_count(ring) if isinstance(ring, int) else ring


def _coerce_member(worker: Union[int, str]) -> str:
    return member_name(worker) if isinstance(worker, int) else worker


def partition_specs(
    specs: Sequence[ExperimentSpec],
    ring: Union[int, HashRing],
) -> Dict[str, List[ExperimentSpec]]:
    """Partition a grid over the ring: ``member -> owned specs``.

    Every spec lands in exactly one member's list (grid order is
    preserved within each list), so the union of the per-member sweeps
    covers the grid with no duplicates.  Duplicate specs in the input
    land with the same owner — one hash, one arc.
    """
    ring = _coerce_ring(ring)
    owned: Dict[str, List[ExperimentSpec]] = {m: [] for m in ring.members}
    for spec in specs:
        owned[ring.owner(spec_hash(spec))].append(spec)
    return owned


def owned_specs(
    specs: Sequence[ExperimentSpec],
    ring: Union[int, HashRing],
    worker: Union[int, str],
) -> List[ExperimentSpec]:
    """The sub-grid a single worker owns, in grid order."""
    ring = _coerce_ring(ring)
    member = _coerce_member(worker)
    if member not in ring:
        raise ConfigurationError(
            f"{member!r} is not on the ring {list(ring.members)}"
        )
    return [s for s in specs if ring.owner(spec_hash(s)) == member]


def run_partition(
    specs: Sequence[ExperimentSpec],
    worker: Union[int, str],
    ring: Union[int, HashRing],
    store: Union[str, SweepStore],
    parallel: bool = True,
    max_workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> SweepResult:
    """Run exactly one worker's cells of a grid into its local store.

    The worker-side entrypoint of the fabric: filters ``specs`` down to
    the cells ``worker`` owns under ``ring`` (an integer ``W`` means
    the canonical ``W``-worker ring) and executes them through
    :func:`~repro.experiments.runner.run_specs` with the given shard
    ``store`` — inheriting single-host resume semantics unchanged, so a
    crashed or re-launched worker re-runs only its own missing cells,
    and a *rebalance* pass (same call with the dead members removed
    from ``ring``) re-runs only newly-adopted orphans.  Seeds are baked
    into ``specs`` before partitioning ever happens, so no membership
    change can shift them.

    Returns the worker's :class:`~repro.experiments.runner.SweepResult`
    covering its owned cells, in grid order.
    """
    mine = owned_specs(list(specs), ring, worker)
    return run_specs(
        mine,
        parallel=parallel,
        max_workers=max_workers,
        store=store,
        chunk_size=chunk_size,
        policy=policy,
    )
