"""Shared fixtures for the test suite."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.analysis.concurrency import sanitizer

#: (p, k) pairs that are small enough for exhaustive pattern testing.
SMALL_PK = [
    (3, 2),
    (3, 3),
    (5, 2),
    (5, 3),
    (5, 4),
    (5, 5),
    (7, 4),
    (7, 7),
    (11, 6),
    (11, 11),
    (13, 9),
]

#: Every erasure pattern of size 0..2 for a (k+2)-column stripe.
def erasure_patterns(k: int) -> list[tuple[int, ...]]:
    cols = range(k + 2)
    return (
        [()]
        + [(c,) for c in cols]
        + list(itertools.combinations(cols, 2))
    )


@pytest.fixture(autouse=True)
def alias_clean():
    """Under ``REPRO_ALIAS_SANITIZER=1``, a write to a payload while the
    transport still holds it fails the test that made it."""
    sanitizer.clear_events()
    yield
    sanitizer.assert_clean()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0DE)


@pytest.fixture
def random_bits(rng):
    """Factory: random 0/1 arrays."""

    def make(*shape: int) -> np.ndarray:
        return rng.integers(0, 2, shape).astype(np.uint8)

    return make


@pytest.fixture
def random_words(rng):
    """Factory: random uint64 arrays."""

    def make(shape) -> np.ndarray:
        return rng.integers(0, 2**64, shape, dtype=np.uint64)

    return make
