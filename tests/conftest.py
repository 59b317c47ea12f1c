"""Shared fixtures for the test suite."""

from __future__ import annotations

import itertools
import sys
import zlib

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


@pytest.fixture
def hashed(monkeypatch):
    """A one-element list counting the bytes hashed through
    ``zlib.crc32``, which every CRC-32 in the stack calls looked up on
    the module.  The alias sanitizer's fingerprints are instrumentation,
    not the program's hashing, and are not counted."""
    count = [0]
    real = zlib.crc32

    def counting(data, value=0):
        if sys._getframe(1).f_globals["__name__"] != sanitizer.__name__:
            count[0] += memoryview(data).nbytes
        return real(data, value)

    monkeypatch.setattr(zlib, "crc32", counting)
    return count
