"""Parameter selection for Recursive-BFS (paper Theorem 4.1).

The paper sets ``beta = 2^{-sqrt(log D0 log log n)}`` and recursion
depth ``L = sqrt(log D0 / log log n)``, with ``w = Theta(log n)`` a
"sufficiently large multiple" of ``log n`` controlling the cluster-graph
distance proxy conversions.

Exact proof constants are astronomically conservative at laptop scale,
so this module derates them (ARCHITECTURE.md, "Charged shortcuts on
the LB tier") while keeping the paper's
functional forms.  In particular the distance-proxy conversion uses the
empirically-grounded affine form

    dist_G*(Cl(u), Cl(v)) <= proxy_mult * beta * dist_G(u, v) + proxy_add

(with ``proxy_mult ~ e^2/2`` from Lemma 2.1's per-window geometric tail
and ``proxy_add = Theta(log n)`` absorbing short-distance fluctuations),
which is the content of Lemmas 2.2/2.3 with explicit constants.  Every
constant is a parameter; the test-suite validates end-to-end label
correctness across seeds and families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..clustering.casts import CastMode
from ..errors import ConfigurationError
from .z_sequence import z_cap


@dataclass(frozen=True)
class BFSParameters:
    """Tunable knobs of the Recursive-BFS algorithm.

    Parameters
    ----------
    beta:
        MPX clustering rate; ``1/beta`` must be an integer >= 2.
    max_depth:
        Recursion depth ``L``; level-``L`` calls use the trivial
        wavefront BFS.
    alpha:
        Z-sequence scale factor (paper fixes ``alpha = 4``).
    proxy_mult, proxy_add:
        The affine distance-proxy constants (see module docstring):
        cluster-graph distance is at most
        ``proxy_mult * beta * d + proxy_add`` for base distance ``d``.
    radius_multiplier:
        Cluster growth horizon ``T = radius_multiplier * ln(n) / beta``.
    slot_multiplier:
        Up/Down-cast slot table length multiplier
        (``ell = slot_multiplier * contention * ln n``).
    cast_mode:
        FAST (default) or FAITHFUL cast execution (ARCHITECTURE.md,
        "Charged shortcuts on the LB tier").
    use_distributed_clustering:
        Run the honest Lemma 2.5 protocol instead of the charged
        shortcut when building each level's cluster graph.
    trivial_factor:
        Fall back to trivial BFS when ``D <= trivial_factor / beta``
        (recursion cannot pay off below a few stages).
    """

    beta: float
    max_depth: int
    alpha: int = 4
    proxy_mult: float = 2.0
    proxy_add: float = 8.0
    radius_multiplier: float = 2.0
    slot_multiplier: float = 3.0
    cast_mode: CastMode = CastMode.FAST
    use_distributed_clustering: bool = False
    trivial_factor: int = 2

    def __post_init__(self) -> None:
        if not (0.0 < self.beta <= 0.5):
            raise ConfigurationError(f"beta must be in (0, 0.5], got {self.beta}")
        inv = 1.0 / self.beta
        if abs(inv - round(inv)) > 1e-9:
            raise ConfigurationError(f"1/beta must be an integer, got {inv}")
        if self.max_depth < 1:
            raise ConfigurationError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.alpha < 2:
            raise ConfigurationError(f"alpha must be >= 2, got {self.alpha}")
        if self.proxy_mult < 1.0:
            raise ConfigurationError("proxy_mult must be >= 1")
        if self.proxy_add < 0.0:
            raise ConfigurationError("proxy_add must be >= 0")
        if self.trivial_factor < 1:
            raise ConfigurationError("trivial_factor must be >= 1")

    # ------------------------------------------------------------------
    @property
    def inv_beta(self) -> int:
        """Integer ``1/beta`` (the per-stage wavefront advance)."""
        return round(1.0 / self.beta)

    def proxy_depth(self, distance: float) -> int:
        """Cluster-graph search depth that certifies base distance ``distance``.

        Any pair at base distance ``<= distance`` is, w.h.p., within
        this many cluster-graph hops (the affine Lemma 2.2/2.3 bound),
        so a recursion to this depth finds every relevant cluster.
        """
        if distance <= 0:
            return max(1, math.ceil(self.proxy_add))
        return max(1, math.ceil(self.proxy_mult * self.beta * distance + self.proxy_add))

    def d_star(self, depth_budget: int) -> int:
        """``D*`` for the Step 1 initialization (Z-sequence cap form)."""
        return z_cap(self.proxy_depth(depth_budget), self.alpha)

    def lower_from_proxy(self, x: float) -> float:
        """Valid lower bound on base distance given cluster distance ``x``.

        Inverts the affine proxy upper bound:
        ``x <= mult * beta * d + add  =>  d >= (x - add) / (mult * beta)``.
        """
        if math.isinf(x):
            return math.inf
        return max(0.0, (x - self.proxy_add) / (self.proxy_mult * self.beta))

    def upper_from_proxy(self, x: float, horizon: int) -> float:
        """Valid upper bound on base distance given cluster distance ``x``.

        A cluster path of ``x + 1`` clusters, each of radius at most
        ``horizon``, routes in at most ``(x + 1) * (2 * horizon + 1) + x``
        base hops.
        """
        if math.isinf(x):
            return math.inf
        return (x + 1) * (2 * horizon + 1) + x

    # ------------------------------------------------------------------
    @classmethod
    def for_instance(
        cls,
        n: int,
        depth_budget: int,
        **overrides,
    ) -> "BFSParameters":
        """Paper-formula parameters for an ``n``-vertex, depth-``D0`` search.

        ``1/beta = 2^ceil(sqrt(log2 D0 * log2 log2 n))`` (clamped to
        ``[2, D0]``) and ``L = ceil(sqrt(log2 D0 / log2 log2 n))``.
        """
        if n < 2:
            raise ConfigurationError(f"n must be >= 2, got {n}")
        if depth_budget < 1:
            raise ConfigurationError(f"depth_budget must be >= 1, got {depth_budget}")
        log_d = max(1.0, math.log2(depth_budget))
        log_log_n = max(1.0, math.log2(max(2.0, math.log2(n))))
        exponent = max(1, round(math.sqrt(log_d * log_log_n)))
        inv_beta = 2**exponent
        # beta must satisfy beta <= 1/2 and inv_beta not absurdly large.
        inv_beta = max(2, min(inv_beta, 2 ** max(1, int(log_d))))
        depth = max(1, math.ceil(math.sqrt(log_d / log_log_n)))
        proxy_add = max(6.0, 1.5 * math.log(n))
        defaults = dict(
            beta=1.0 / inv_beta,
            max_depth=depth,
            proxy_add=proxy_add,
        )
        defaults.update(overrides)
        return cls(**defaults)
