"""Random-number-generator management.

Every stochastic component in the library accepts either an integer seed, a
:class:`numpy.random.Generator`, or ``None``.  The helpers here normalise that
input and provide reproducible *stream spawning* so that parallel workers and
independent circuit runs never share a stream.

The design follows the NumPy ``SeedSequence`` model recommended for parallel
stochastic simulation: a single root seed deterministically spawns an
arbitrary number of statistically independent child streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

import numpy as np

#: Anything acceptable as a source of randomness throughout the library.
RandomState = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(seed: RandomState = None) -> np.random.Generator:
    """Normalise *seed* into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an integer seed, an existing ``Generator``
        (returned unchanged), or a ``SeedSequence``.

    Returns
    -------
    numpy.random.Generator
        A PCG64-backed generator.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise TypeError(
        f"seed must be None, int, Generator, or SeedSequence; got {type(seed)!r}"
    )


def as_seed_sequence(seed: RandomState) -> np.random.SeedSequence:
    """Normalise *seed* into a :class:`numpy.random.SeedSequence`.

    A ``SeedSequence`` is returned unchanged; a ``Generator`` contributes
    four integers drawn from its own bit stream (so the result stays
    reproducible given the generator state, and advances it); ``None`` or
    an integer seeds a new sequence.
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.random.Generator):
        return np.random.SeedSequence(seed.integers(0, 2**63 - 1, size=4).tolist())
    return np.random.SeedSequence(seed)


def spawn_generators(seed: RandomState, n: int) -> list[np.random.Generator]:
    """Spawn *n* statistically independent generators from a single seed.

    Independence is guaranteed by ``SeedSequence.spawn`` rather than by
    jumping or re-seeding, so the result is reproducible regardless of how
    many streams are requested or in which order they are consumed.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return [np.random.default_rng(child) for child in as_seed_sequence(seed).spawn(n)]


@dataclass
class SeedStream:
    """A reproducible, forkable stream of seeds for parallel work items.

    ``SeedStream`` wraps a root :class:`numpy.random.SeedSequence` and hands
    out child sequences on demand.  Work item *i* always receives the same
    child regardless of execution order, which makes parallel sweeps
    deterministic under any scheduling.

    Examples
    --------
    >>> stream = SeedStream(1234)
    >>> g0 = stream.generator_for(0)
    >>> g1 = stream.generator_for(1)
    >>> g0 is g1
    False
    """

    root_seed: Optional[int] = None
    _root: np.random.SeedSequence = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._root = np.random.SeedSequence(self.root_seed)

    def child(self, index: int) -> np.random.SeedSequence:
        """Return the child ``SeedSequence`` for work item *index*."""
        if index < 0:
            raise ValueError(f"index must be non-negative, got {index}")
        # spawn_key indexing keeps children independent and order-free.
        return np.random.SeedSequence(
            entropy=self._root.entropy, spawn_key=(index,)
        )

    def generator_for(self, index: int) -> np.random.Generator:
        """Return a generator for work item *index*."""
        return np.random.default_rng(self.child(index))

    def generators(self, n: int) -> list[np.random.Generator]:
        """Return generators for work items ``0 .. n-1``."""
        return [self.generator_for(i) for i in range(n)]

    def iter_generators(self) -> Iterator[np.random.Generator]:
        """Yield an unbounded sequence of independent generators."""
        index = 0
        while True:
            yield self.generator_for(index)
            index += 1


def paired_seed(seed: Optional[int], *key: int) -> np.random.SeedSequence:
    """The library's paired seeding convention: ``SeedSequence(seed, spawn_key=key)``.

    Workload execution paths derive all randomness for unit ``key`` (e.g.
    ``(graph_index, trial_index)``) from this sequence, so engine-batched,
    process-parallel, and sequential execution of the same spec consume
    identical random numbers — comparisons stay paired regardless of how the
    work is scheduled.  ``seed=None`` draws fresh root entropy (the run is
    then reproducible only from the returned sequence's ``entropy``).
    """
    return np.random.SeedSequence(
        entropy=seed, spawn_key=tuple(int(k) for k in key)
    )


def grid_cell_key(n_vertices: int, probability: float) -> tuple:
    """Integer spawn-key prefix identifying one (n, p) Erdős–Rényi cell.

    Probabilities are keyed at micro-resolution so every distinct paper grid
    value maps to a distinct key while staying a valid ``spawn_key`` entry.
    Shared by the Figure 3 runner and generator graph sources so "same
    (n, p, j) cell → same graph" holds across all workload paths.
    """
    return (int(n_vertices), int(round(float(probability) * 1_000_000)))


def random_bits(rng: np.random.Generator, shape: Union[int, Sequence[int]]) -> np.ndarray:
    """Draw an array of fair random bits (0/1, int8) of the given shape."""
    return rng.integers(0, 2, size=shape, dtype=np.int8)
