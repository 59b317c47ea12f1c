"""Integration tests for the RAID-6 array simulator."""

import pytest

from repro.array import ArrayDegradedError, RAID6Array
from repro.array.workloads import payload
from repro.codes import make_code


def build(name="liberation-optimal", k=4, p=5, n_stripes=8, element_size=16, **kw):
    code = make_code(name, k, p=p, element_size=element_size, **kw)
    return RAID6Array(code, n_stripes=n_stripes)


@pytest.fixture
def filled():
    arr = build()
    data = payload(arr.capacity, seed=1)
    arr.write(0, data)
    return arr, data


class TestBasicIO:
    def test_fill_and_read_back(self, filled):
        arr, data = filled
        assert arr.read(0, arr.capacity) == data

    def test_partial_reads(self, filled):
        arr, data = filled
        for off, ln in [(0, 1), (5, 100), (317, 64), (arr.capacity - 9, 9)]:
            assert arr.read(off, ln) == data[off : off + ln]

    def test_zero_length_ops(self, filled):
        arr, data = filled
        assert arr.read(10, 0) == b""
        arr.write(10, b"")
        assert arr.read(0, arr.capacity) == data

    def test_full_stripe_path_used(self):
        arr = build()
        arr.write(0, payload(arr.layout.stripe_data_bytes, seed=2))
        assert arr.stats.full_stripe_writes == 1
        assert arr.stats.small_writes == 0

    def test_unaligned_write_uses_rmw(self, filled):
        arr, data = filled
        patch = b"\xAA" * 24
        arr.write(100, patch)
        assert arr.stats.small_writes > 0
        expect = data[:100] + patch + data[124:]
        assert arr.read(0, arr.capacity) == expect

    def test_parity_consistent_after_mixed_io(self, filled):
        arr, _ = filled
        arr.write(33, b"x" * 50)
        arr.write(0, payload(arr.layout.stripe_data_bytes, seed=3))
        for s in range(arr.layout.n_stripes):
            assert arr.code.verify(arr.read_stripe(s))


class TestDegradedOperation:
    def test_single_failure_reads(self, filled):
        arr, data = filled
        arr.fail_disk(2)
        assert arr.read(0, arr.capacity) == data
        assert arr.stats.degraded_reads > 0

    def test_double_failure_reads(self, filled):
        arr, data = filled
        arr.fail_disk(1)
        arr.fail_disk(4)
        assert arr.read(0, arr.capacity) == data

    def test_third_failure_rejected(self, filled):
        arr, _ = filled
        arr.fail_disk(0)
        arr.fail_disk(1)
        with pytest.raises(ArrayDegradedError):
            arr.fail_disk(2)

    def test_degraded_write_stays_recoverable(self, filled):
        arr, data = filled
        arr.fail_disk(0)
        arr.fail_disk(3)
        patch = payload(200, seed=9)
        arr.write(64, patch)
        expect = data[:64] + patch + data[264:]
        assert arr.read(0, arr.capacity) == expect

    def test_latent_error_triggers_reconstruction(self, filled):
        arr, data = filled
        arr.disks[2].mark_latent_error(3)
        assert arr.read(0, arr.capacity) == data

    def test_latent_error_healed_by_read(self, filled):
        """Medium errors are repaired in place on first reconstruction,
        so they stop consuming the stripe's two-failure budget."""
        arr, data = filled
        arr.disks[2].mark_latent_error(3)
        arr.read_stripe(3)
        assert arr.stats.latent_repairs == 1
        # The strip reads fine now, even with two disks subsequently dead.
        other = [d.disk_id for d in arr.disks if d.disk_id != 2][:2]
        for d in other:
            arr.fail_disk(d)
        assert arr.read(0, arr.capacity) == data

    def test_latent_plus_double_failure_same_stripe_survives(self, filled):
        """The §I triple-threat: latent error surfaces while one disk is
        down; a scrub pass (which reads parity strips too, unlike user
        reads) heals it before a second disk dies."""
        from repro.array import Scrubber

        arr, data = filled
        arr.fail_disk(1)
        arr.disks[2].mark_latent_error(3)
        Scrubber(arr).scrub()  # reads every strip -> heals the medium error
        assert arr.stats.latent_repairs == 1
        arr.fail_disk(4)
        assert arr.read(0, arr.capacity) == data


class TestRebuild:
    def test_rebuild_restores_contents_and_health(self, filled):
        arr, data = filled
        arr.fail_disk(1)
        arr.fail_disk(5)
        n = arr.rebuild()
        assert n == arr.layout.n_stripes
        assert arr.failed_disks() == []
        assert arr.read(0, arr.capacity) == data
        # Every strip physically present again.
        for s in range(arr.layout.n_stripes):
            assert arr.code.verify(arr.read_stripe(s))
            assert arr.stats.degraded_reads >= 0

    def test_rebuild_noop_when_healthy(self, filled):
        arr, _ = filled
        assert arr.rebuild() == 0

    def test_rebuild_decodes_around_latent_errors(self, filled):
        """Regression (found by the model-based harness): rebuild must
        reconstruct dead columns *together with* latent strips on
        surviving disks -- not feed zero-filled latent strips into the
        decode as if they were valid data."""
        arr, data = filled
        arr.fail_disk(1)
        # A latent error on a healthy disk, in a stripe the rebuild
        # will have to reconstruct.
        victim = next(d for d in range(6) if d != 1)
        arr.disks[victim].mark_latent_error(2)
        arr.rebuild()
        assert arr.read(0, arr.capacity) == data
        for s in range(arr.layout.n_stripes):
            assert arr.code.verify(arr.read_stripe(s))

    def test_rebuild_after_degraded_writes(self, filled):
        arr, data = filled
        arr.fail_disk(0)
        patch = payload(500, seed=4)
        arr.write(10, patch)
        arr.rebuild()
        expect = data[:10] + patch + data[510:]
        assert arr.read(0, arr.capacity) == expect


@pytest.mark.parametrize(
    "name,kw",
    [
        ("liberation-optimal", {"p": 5}),
        ("liberation-original", {"p": 5}),
        ("evenodd", {"p": 5}),
        ("rdp", {"p": 7}),
        ("reed-solomon", {"rows": 4}),
    ],
)
class TestAllCodesBehindTheArray:
    def test_end_to_end(self, name, kw):
        code = make_code(name, 4, element_size=16, **kw)
        arr = RAID6Array(code, n_stripes=4)
        data = payload(arr.capacity, seed=11)
        arr.write(0, data)
        arr.fail_disk(0)
        arr.fail_disk(2)
        assert arr.read(0, arr.capacity) == data
        arr.rebuild()
        assert arr.read(0, arr.capacity) == data


class TestRepr:
    def test_repr(self, filled):
        arr, _ = filled
        assert "liberation-optimal" in repr(arr)
