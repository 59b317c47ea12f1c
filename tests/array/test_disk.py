"""Tests for the simulated disk."""

import numpy as np
import pytest

from repro.array.disk import (
    DiskFailedError,
    LatentSectorError,
    SimulatedDisk,
)


@pytest.fixture
def disk():
    return SimulatedDisk(0, n_strips=8, strip_words=4)


class TestIO:
    def test_fresh_disk_reads_zeros(self, disk):
        assert not disk.read_strip(0).any()

    def test_write_read_round_trip(self, disk, random_words):
        data = random_words(4)
        disk.write_strip(3, data)
        assert np.array_equal(disk.read_strip(3), data)

    def test_read_returns_copy(self, disk, random_words):
        disk.write_strip(0, random_words(4))
        a = disk.read_strip(0)
        a[0] = 0
        assert disk.read_strip(0)[0] != 0 or a[0] == disk.read_strip(0)[0]

    def test_write_size_validated(self, disk):
        with pytest.raises(ValueError):
            disk.write_strip(0, np.zeros(5, dtype=np.uint64))

    def test_strip_bounds(self, disk):
        with pytest.raises(IndexError):
            disk.read_strip(8)
        with pytest.raises(IndexError):
            disk.write_strip(-1, np.zeros(4, dtype=np.uint64))

    def test_stats_tracked(self, disk, random_words):
        disk.write_strip(0, random_words(4))
        disk.read_strip(0)
        disk.read_strip(0)
        assert disk.stats.writes == 1 and disk.stats.reads == 2
        assert disk.stats.bytes_written == 32 and disk.stats.bytes_read == 64


class TestViewRead:
    """``read_view``: the node frames a ``get`` straight from storage."""

    def test_view_is_read_only_and_shows_the_stored_strip(self, disk, random_words):
        data = random_words(4)
        disk.write_strip(3, data)
        view = disk.read_view(3)
        assert np.array_equal(view, data)
        assert not view.flags.writeable and memoryview(view).readonly
        with pytest.raises(ValueError):
            view[0] = 0
        assert np.array_equal(disk.read_strip(3), data)  # storage untouched

    def test_faults_and_stats_are_read_strips(self, disk, random_words):
        disk.write_strip(0, random_words(4))
        disk.read_view(0)
        disk.read_strip(0)
        assert disk.stats.reads == 2 and disk.stats.bytes_read == 64
        with pytest.raises(IndexError):
            disk.read_view(8)
        disk.mark_latent_error(1)
        with pytest.raises(LatentSectorError):
            disk.read_view(1)
        disk.fail()
        with pytest.raises(DiskFailedError):
            disk.read_view(0)
        assert disk.stats.reads == 2  # a failed read counts nothing

    def test_a_run_view_holds_consecutive_strips_read_only(self, disk, random_words):
        data = [random_words(4) for _ in range(3)]
        for i, words in enumerate(data):
            disk.write_strip(2 + i, words)
        view = disk.read_view(2, 3)
        assert np.array_equal(view, np.concatenate(data))
        assert not view.flags.writeable and memoryview(view).readonly
        with pytest.raises(ValueError):
            view[0] = 0
        assert np.array_equal(disk.read_strip(3), data[1])  # storage untouched
        assert np.array_equal(disk.read_view(7, 1), disk.read_view(7))

    def test_a_run_read_counts_each_strip_and_fails_whole(self, disk):
        disk.read_view(2, 3)
        assert disk.stats.reads == 3 and disk.stats.bytes_read == 96
        for strip, count in ((6, 3), (-1, 2), (0, 9)):
            with pytest.raises(IndexError):
                disk.read_view(strip, count)
        with pytest.raises(ValueError):
            disk.read_view(0, 0)
        disk.mark_latent_error(4)
        with pytest.raises(LatentSectorError, match="strip 4"):
            disk.read_view(2, 3)
        disk.read_view(5, 3)  # the range ends past the latent strip
        disk.fail()
        with pytest.raises(DiskFailedError):
            disk.read_view(5, 3)
        assert disk.stats.reads == 6  # a failed read counts nothing


class TestWholeDiskFailure:
    def test_fail_blocks_io(self, disk, random_words):
        disk.fail()
        assert disk.failed
        with pytest.raises(DiskFailedError):
            disk.read_strip(0)
        with pytest.raises(DiskFailedError):
            disk.write_strip(0, random_words(4))

    def test_replace_resets(self, disk, random_words):
        disk.write_strip(2, random_words(4))
        disk.fail()
        disk.replace()
        assert not disk.failed
        assert not disk.read_strip(2).any()  # replacement is blank
        assert disk.stats.reads == 1  # counters reset before this read


class TestLatentErrors:
    def test_marked_strip_unreadable(self, disk, random_words):
        disk.write_strip(1, random_words(4))
        disk.mark_latent_error(1)
        with pytest.raises(LatentSectorError):
            disk.read_strip(1)
        # other strips unaffected
        disk.read_strip(0)

    def test_rewrite_clears_latent(self, disk, random_words):
        disk.mark_latent_error(1)
        data = random_words(4)
        disk.write_strip(1, data)
        assert np.array_equal(disk.read_strip(1), data)


class TestCorruption:
    def test_corrupt_flips_content_silently(self, disk, random_words):
        data = random_words(4)
        disk.write_strip(5, data)
        disk.corrupt(5, seed=1)
        got = disk.read_strip(5)  # no exception!
        assert not np.array_equal(got, data)

    def test_corrupt_with_explicit_pattern_is_involution(self, disk, random_words):
        data = random_words(4)
        pattern = random_words(4)
        disk.write_strip(5, data)
        disk.corrupt(5, pattern)
        disk.corrupt(5, pattern)
        assert np.array_equal(disk.read_strip(5), data)

    def test_repr_mentions_state(self, disk):
        disk.fail()
        assert "FAILED" in repr(disk)


class TestGeometryValidation:
    def test_positive_dimensions(self):
        with pytest.raises(ValueError):
            SimulatedDisk(0, 0, 4)
