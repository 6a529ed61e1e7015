"""Leader election primitives.

The diameter algorithms of paper Section 5.1 invoke leader election as
a black box: "Elect a leader v0 such that all vertices know ID(v0).  It
is known that this task can be solved in O~(n) time and O~(1) energy
[10]" (Chang, Dani, Hayes, He, Li, Pettie, PODC 2018).

Reimplementing [10] in full is out of scope of *this* paper's
contribution, so per the reproduction ground rules we substitute two
implementations (documented in ARCHITECTURE.md, "Charged shortcuts on
the LB tier"):

- :class:`ChargedLeaderElection` — functionally elects the max-rank
  device and charges the ledger exactly the cited complexity envelope
  (``Theta(log^2 n)`` LB participations per device, ``O~(n)`` LB rounds
  of wall-clock time).  This is the default used by the Section 5
  algorithms, so their measured energy/time profiles match what the
  paper assumes.
- :class:`FloodingLeaderElection` — an honest executable protocol
  (random ranks + iterated Local-Broadcast flooding) that uses
  ``O(diam)`` energy; used in tests to cross-check functional behavior
  on small graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Optional

from ..errors import ConfigurationError
from ..rng import SeedLike, make_rng
from .lb_graph import LBGraph


@dataclass(frozen=True)
class LeaderResult:
    """Outcome of a leader election."""

    leader: Hashable
    rounds: int  # LB rounds consumed


class ChargedLeaderElection:
    """Black-box leader election with the complexity of [10].

    Elects the device with the maximum random rank (ties broken by
    vertex order) and charges every device ``energy_units`` LB
    participations plus ``time_rounds`` LB rounds of wall-clock time,
    defaulting to the cited ``O~(1)`` / ``O~(n)`` envelope.
    """

    def __init__(
        self,
        energy_units: Optional[int] = None,
        time_rounds: Optional[int] = None,
    ) -> None:
        self.energy_units = energy_units
        self.time_rounds = time_rounds

    def run(self, lbg: LBGraph, seed: SeedLike = None) -> LeaderResult:
        """Elect a leader on ``lbg`` and charge the cost envelope."""
        rng = make_rng(seed)
        vertices = sorted(lbg.vertices(), key=repr)
        if not vertices:
            raise ConfigurationError("cannot elect a leader on an empty graph")
        n = max(2, lbg.n_global)
        log_n = max(1, math.ceil(math.log2(n)))
        energy_units = (
            self.energy_units if self.energy_units is not None else log_n * log_n
        )
        time_rounds = (
            self.time_rounds if self.time_rounds is not None else n * log_n
        )

        ranks = rng.random(len(vertices))
        leader = vertices[int(ranks.argmax())]

        # Charge the envelope: each vertex is awake for `energy_units`
        # LB calls spread over `time_rounds` rounds of the protocol.
        for _ in range(energy_units):
            lbg.ledger.charge_lb([], vertices)
        lbg.ledger.advance_lb_rounds(max(0, time_rounds - energy_units))
        return LeaderResult(leader=leader, rounds=time_rounds)


class FloodingLeaderElection:
    """Honest executable election: flood the maximum random rank.

    Every device draws a rank in ``[0, n^3)``.  In each LB round every
    device flips a fair coin: heads it transmits its best-known rank,
    tails it listens.  The global maximum floods outward one hop per
    expected constant number of rounds, so after ``rounds >= c * diam``
    all devices agree on it w.h.p. (rank collisions have probability
    ``<= 1/n``).  Energy ``Theta(rounds)`` per device — *not*
    energy-efficient; provided for small-graph cross-checks of the
    charged black box (ARCHITECTURE.md, "Charged shortcuts on the LB
    tier").
    """

    def __init__(self, rounds: int) -> None:
        if rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
        self.rounds = rounds

    def run(self, lbg: LBGraph, seed: SeedLike = None) -> LeaderResult:
        rng = make_rng(seed)
        vertices = sorted(lbg.vertices(), key=repr)
        if not vertices:
            raise ConfigurationError("cannot elect a leader on an empty graph")
        n = max(2, lbg.n_global)
        best: Dict[Hashable, tuple] = {
            v: (int(rng.integers(0, n**3)), i) for i, v in enumerate(vertices)
        }
        for _ in range(self.rounds):
            coins = rng.random(len(vertices)) < 0.5
            senders = {v: best[v] for v, heads in zip(vertices, coins) if heads}
            receivers = [v for v, heads in zip(vertices, coins) if not heads]
            if senders and receivers:
                heard = lbg.local_broadcast(senders, receivers)
            else:
                lbg.ledger.advance_lb_rounds(1)
                heard = {}
            for v, rank in heard.items():
                if rank > best[v]:
                    best[v] = rank

        global_best = max(best.values())
        winner_index = global_best[1]
        leader = vertices[winner_index]
        return LeaderResult(leader=leader, rounds=self.rounds)
