"""Seeded random-number-generator helpers.

Every stochastic component of the library (allocations, workload
generators, Monte-Carlo estimators) accepts either an integer seed, a
:class:`numpy.random.Generator`, or ``None``.  This module centralizes the
conversion so that experiments are reproducible end to end: the same seed
always produces the same allocation, the same demand sequence and therefore
the same simulation trace.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Union

import numpy as np

#: Type alias accepted anywhere the library needs randomness.
RandomState = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(random_state: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a flexible seed spec.

    Parameters
    ----------
    random_state:
        ``None`` (fresh entropy), an ``int`` seed, a
        :class:`numpy.random.SeedSequence`, or an existing generator
        (returned unchanged).

    Examples
    --------
    >>> g1 = as_generator(42)
    >>> g2 = as_generator(42)
    >>> int(g1.integers(1 << 30)) == int(g2.integers(1 << 30))
    True
    """
    if isinstance(random_state, np.random.Generator):
        return random_state
    if isinstance(random_state, np.random.SeedSequence):
        return np.random.default_rng(random_state)
    if random_state is None:
        return np.random.default_rng()
    if isinstance(random_state, (int, np.integer)):
        if random_state < 0:
            raise ValueError(f"seed must be non-negative, got {random_state}")
        return np.random.default_rng(int(random_state))
    raise TypeError(
        "random_state must be None, an int, a numpy SeedSequence or a "
        f"numpy Generator, got {type(random_state).__name__}"
    )


def spawn_seed_sequences(
    random_state: RandomState, count: int
) -> List[np.random.SeedSequence]:
    """Spawn ``count`` statistically independent child seed sequences.

    The children are plain :class:`numpy.random.SeedSequence` objects,
    spawned up front, so the Monte-Carlo estimators give each trial its
    own stream and a trial's outcome depends only on its child seed.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(random_state, np.random.SeedSequence):
        seq = random_state
    elif isinstance(random_state, np.random.Generator):
        # Derive a SeedSequence from the generator's bit stream.
        seq = np.random.SeedSequence(int(random_state.integers(0, 2**63 - 1)))
    elif random_state is None:
        seq = np.random.SeedSequence()
    elif isinstance(random_state, (int, np.integer)):
        if random_state < 0:
            raise ValueError(f"seed must be non-negative, got {random_state}")
        seq = np.random.SeedSequence(int(random_state))
    else:
        raise TypeError(
            "random_state must be None, an int, a numpy SeedSequence or a "
            f"numpy Generator, got {type(random_state).__name__}"
        )
    return seq.spawn(count)


def spawn_generators(random_state: RandomState, count: int) -> List[np.random.Generator]:
    """Spawn ``count`` statistically independent child generators.

    Used by the Monte-Carlo harness so that independent trials remain
    reproducible yet uncorrelated when a single master seed is supplied.
    """
    return [
        np.random.default_rng(child)
        for child in spawn_seed_sequences(random_state, count)
    ]


def derive_seed(random_state: RandomState, stream: int = 0) -> int:
    """Derive a deterministic integer sub-seed for a named stream.

    Handy when a component needs to record "the seed it used" in a report
    while having been constructed from a shared master seed.
    """
    if stream < 0:
        raise ValueError(f"stream must be non-negative, got {stream}")
    gen = as_generator(random_state)
    value = 0
    for _ in range(stream + 1):
        value = int(gen.integers(0, 2**63 - 1))
    return value


def permutation(random_state: RandomState, size: int) -> np.ndarray:
    """Return a random permutation of ``range(size)`` as an int64 array."""
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    return as_generator(random_state).permutation(size).astype(np.int64)


def choice_without_replacement(
    random_state: RandomState, population: int, count: int
) -> np.ndarray:
    """Sample ``count`` distinct integers from ``range(population)``."""
    if count > population:
        raise ValueError(
            f"cannot sample {count} items without replacement from {population}"
        )
    gen = as_generator(random_state)
    return gen.choice(population, size=count, replace=False).astype(np.int64)


def weighted_choice(
    random_state: RandomState,
    weights: Iterable[float],
    size: Optional[int] = None,
) -> np.ndarray:
    """Sample indices proportionally to ``weights`` (with replacement)."""
    w = np.asarray(list(weights), dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-D sequence")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must have a positive sum")
    probs = w / total
    gen = as_generator(random_state)
    n = 1 if size is None else size
    out = gen.choice(w.size, size=n, replace=True, p=probs).astype(np.int64)
    return out if size is not None else out[:1]
