"""Tests for repro.utils.crc: every identity against ``zlib.crc32`` of
the bytes it stands for, and the bytes each function hashes."""

import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.crc import (
    CACHED_LENGTHS,
    _shift_table,
    crc32_combine,
    crc32_patch,
    crc32_xor,
    crc32_zeros,
)


@pytest.fixture
def hashed(monkeypatch):
    """Count the bytes ``zlib.crc32`` hashes while the test runs."""
    count = [0]
    real = zlib.crc32

    def counting(data, value=0):
        count[0] += memoryview(data).nbytes
        return real(data, value)

    monkeypatch.setattr(zlib, "crc32", counting)
    return count


class TestCombine:
    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=3000), st.binary(max_size=3000))
    def test_the_crc_of_a_join_from_the_crcs_of_its_sides(self, a, b):
        assert crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b)) == zlib.crc32(a + b)

    @pytest.mark.parametrize("a,b", [(b"", b""), (b"", b"abc"), (b"abc", b"")])
    def test_empty_sides(self, a, b):
        assert crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b)) == zlib.crc32(a + b)

    def test_a_fold_over_many_parts(self):
        parts = [bytes([i]) * (i * 97) for i in range(12)]
        crc = 0
        for part in parts:
            crc = crc32_combine(crc, zlib.crc32(part), len(part))
        assert crc == zlib.crc32(b"".join(parts))

    def test_hashes_nothing(self, hashed):
        crc32_combine(0x12345678, 0x9ABCDEF0, 1 << 40)
        assert hashed[0] == 0

    def test_a_negative_length_is_refused(self):
        with pytest.raises(ValueError):
            crc32_combine(0, 0, -1)

    def test_the_length_cache_is_bounded(self):
        for n in range(1, CACHED_LENGTHS + 10):
            crc32_combine(1, 2, n)
        assert _shift_table.cache_info().currsize <= CACHED_LENGTHS


class TestXor:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 600).flatmap(
        lambda n: st.lists(st.binary(min_size=n, max_size=n), max_size=7).map(
            lambda bufs: (n, bufs)
        )
    ))
    def test_the_crc_of_an_xor_from_the_crcs_of_its_terms(self, case):
        n, bufs = case
        acc = 0
        for buf in bufs:
            acc ^= int.from_bytes(buf, "little")
        xor = acc.to_bytes(n, "little")
        assert crc32_xor((zlib.crc32(b) for b in bufs), n) == zlib.crc32(xor)

    @pytest.mark.parametrize("n", [0, 1, 7, 320, 28672])
    def test_zeros(self, n):
        assert crc32_zeros(n) == zlib.crc32(bytes(n))


class TestPatch:
    def test_a_patch_hashes_only_its_own_bytes(self, hashed):
        """A 64 B patch at offset 1000 of a 16 MiB object hashes its 64
        bytes, not the 16 MiB after them."""
        size, offset = 16 << 20, 1000
        new = bytes(range(64))
        crc = crc32_zeros(size)  # the object is all zeros
        patched = crc32_patch(crc, size, offset, bytes(64), new)
        assert hashed[0] == len(new)
        assert patched == zlib.crc32(bytes(offset) + new + bytes(size - offset - 64))
