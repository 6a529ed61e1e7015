"""Seeded randomness utilities.

Every stochastic component of the library takes either an explicit
:class:`numpy.random.Generator` or an integer seed.  This module
centralizes the conversion and the derivation of independent per-device
streams, so that whole-system runs are reproducible bit-for-bit from a
single seed while devices remain statistically independent (the model
has no shared randomness).
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union, overload

import numpy as np

from .errors import ConfigurationError

SeedLike = Union[None, int, np.random.Generator]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a ``numpy`` Generator from a seed, generator, or ``None``.

    Passing an existing Generator returns it unchanged (no copy), so a
    caller can thread one stream through a whole experiment.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class LazyStream:
    """One device's stream, not yet built: a child index of a :class:`StreamTree`.

    :meth:`generator` builds the child's Generator, bit-identical to the
    one ``spawn_streams`` would have built for the same index.
    """

    __slots__ = ("tree", "index")

    def __init__(self, tree: "StreamTree", index: int) -> None:
        self.tree = tree
        self.index = index

    def generator(self) -> np.random.Generator:
        tree = self.tree
        return np.random.default_rng(np.random.SeedSequence(
            tree.entropy,
            spawn_key=tree.spawn_key + (self.index,),
            pool_size=tree.pool_size,
        ))


#: What a device factory receives: a built Generator, or a lazy stream
#: that :attr:`repro.radio.device.Device.rng` builds on first draw.
Stream = Union[np.random.Generator, LazyStream]


def built(stream: Stream) -> np.random.Generator:
    """The stream's Generator, built now if the stream is lazy."""
    return stream.generator() if isinstance(stream, LazyStream) else stream


class StreamTree:
    """The children of one ``SeedSequence``, handed out without building them.

    Child ``i`` of a ``SeedSequence`` is
    ``SeedSequence(entropy, spawn_key=spawn_key + (i,), pool_size=...)``,
    bit-identical to its ``spawn()[i]``.  numpy's own child counter
    (``n_children_spawned``) is read-only, so the tree owns the counter:
    :meth:`spawn` reserves the next ``count`` indices, in order, exactly
    as ``seed_seq.spawn(count)`` would, and builds nothing.  A protocol
    run threads one tree through all of its phases, so a device pays for
    a Generator only if it draws.

    A tree over a caller's Generator starts at that Generator's counter;
    :meth:`sync` moves the Generator's counter past every child the tree
    handed out, so a caller that reuses the Generator afterwards sees the
    same children it would have seen had each phase spawned from it.
    """

    __slots__ = ("entropy", "spawn_key", "pool_size", "_next", "_caller")

    def __init__(self, seed: SeedLike = None) -> None:
        seq = make_rng(seed).bit_generator.seed_seq
        if not isinstance(seq, np.random.SeedSequence):
            raise ConfigurationError(
                f"cannot derive child streams from a {type(seq).__name__}"
            )
        self.entropy = seq.entropy
        self.spawn_key: Tuple[int, ...] = seq.spawn_key
        self.pool_size: int = seq.pool_size
        self._next: int = seq.n_children_spawned
        self._caller: Optional[np.random.SeedSequence] = (
            seq if isinstance(seed, np.random.Generator) else None
        )

    @classmethod
    def adopt(cls, seed: "StreamSeed") -> "StreamTree":
        """``seed`` itself if it is already a tree, else a new tree over it."""
        return seed if isinstance(seed, StreamTree) else cls(seed)

    def spawn(self, count: int) -> List[LazyStream]:
        """The next ``count`` children, as lazy streams."""
        base = self._next
        self._next += count
        return [LazyStream(self, i) for i in range(base, base + count)]

    def sync(self) -> None:
        """Advance a caller's Generator past every child handed out.

        A no-op for a tree built from an int or ``None`` seed, whose
        ``SeedSequence`` nobody else holds.
        """
        if self._caller is not None:
            lag = self._next - self._caller.n_children_spawned
            if lag > 0:
                self._caller.spawn(lag)


#: A seed for a per-device stream derivation: a plain seed, or a tree a
#: multi-phase protocol threads across its phases.
StreamSeed = Union[None, int, np.random.Generator, StreamTree]


@overload
def spawn_streams(rng: np.random.Generator, count: int) -> List[np.random.Generator]: ...


@overload
def spawn_streams(rng: StreamTree, count: int) -> List[LazyStream]: ...


def spawn_streams(
    rng: Union[np.random.Generator, StreamTree], count: int
) -> Union[List[np.random.Generator], List[LazyStream]]:
    """Derive ``count`` independent child streams from ``rng``.

    Used to give each simulated device its own private randomness, as
    required by the model ("Devices can locally generate unbiased random
    bits; there is no shared randomness"), and by the experiment harness
    to derive per-cell sweep seeds.  From a Generator the children are
    built Generators; from a :class:`StreamTree` they are the tree's
    next ``count`` :class:`LazyStream` children, built on first draw.
    """
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count}")
    if isinstance(rng, StreamTree):
        return rng.spawn(count)
    return [np.random.default_rng(s) for s in rng.bit_generator.seed_seq.spawn(count)]


def exponential(rng: np.random.Generator, beta: float) -> float:
    """Sample ``Exponential(beta)`` — rate ``beta``, mean ``1/beta``.

    This is the shift distribution of the Miller-Peng-Xu clustering
    (paper Section 2): ``delta_v ~ Exponential(beta)``.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    return float(rng.exponential(1.0 / beta))


def geometric_decay_slot(rng: np.random.Generator, max_slot: int) -> int:
    """Sample the Decay protocol's transmission slot.

    Returns ``X in [1, max_slot]`` with ``P(X = t) >= 2^-t`` (Lemma 2.4):
    a truncated geometric — the leftover mass is assigned to ``max_slot``.
    """
    if max_slot < 1:
        raise ValueError(f"max_slot must be >= 1, got {max_slot}")
    # Geometric with success prob 1/2, truncated at max_slot.
    slot = int(rng.geometric(0.5))
    return min(slot, max_slot)
