"""Tests for the parity-declustered layout."""

import pytest

from repro.array import RAID6Array, Scrubber
from repro.array.layout import DeclusteredLayout
from repro.array.workloads import payload
from repro.codes import make_code

K, P, ELEM = 4, 5, 16


def declustered(n_pool=12, n_stripes=40, seed=1):
    code = make_code("liberation-optimal", K, p=P, element_size=ELEM)
    layout = DeclusteredLayout(K, code.rows, ELEM, n_stripes, n_pool=n_pool, seed=seed)
    arr = RAID6Array(code, layout=layout)
    data = payload(arr.capacity, seed=3)
    arr.write(0, data)
    return arr, data


class TestLayout:
    def test_pool_validation(self):
        with pytest.raises(ValueError):
            DeclusteredLayout(4, 5, 16, 8, n_pool=5)

    def test_mapping_is_permutation_subset(self):
        lay = DeclusteredLayout(4, 5, 16, 20, n_pool=10)
        for s in range(20):
            disks = [lay.disk_for(s, c) for c in range(6)]
            assert len(set(disks)) == 6
            assert all(0 <= d < 10 for d in disks)

    def test_column_for_inverse(self):
        lay = DeclusteredLayout(4, 5, 16, 20, n_pool=10)
        for s in range(20):
            for c in range(6):
                assert lay.column_for(s, lay.disk_for(s, c)) == c

    def test_column_for_absent_disk_is_none(self):
        lay = DeclusteredLayout(4, 5, 16, 20, n_pool=10)
        for s in range(20):
            used = {lay.disk_for(s, c) for c in range(6)}
            for d in set(range(10)) - used:
                assert lay.column_for(s, d) is None

    def test_deterministic_per_seed(self):
        a = DeclusteredLayout(4, 5, 16, 10, n_pool=9, seed=7)
        b = DeclusteredLayout(4, 5, 16, 10, n_pool=9, seed=7)
        c = DeclusteredLayout(4, 5, 16, 10, n_pool=9, seed=8)
        assert a._maps == b._maps
        assert a._maps != c._maps

    def test_stripes_on_disk(self):
        lay = DeclusteredLayout(4, 5, 16, 30, n_pool=10, seed=2)
        for d in range(10):
            for s in lay.stripes_on_disk(d):
                assert lay.column_for(s, d) is not None

    def test_geometry_mismatch_rejected(self):
        code = make_code("liberation-optimal", K, p=P, element_size=ELEM)
        bad = DeclusteredLayout(K, code.rows + 1, ELEM, 8, n_pool=10)
        with pytest.raises(ValueError):
            RAID6Array(code, layout=bad)


class TestDeclusteredArray:
    def test_round_trip(self):
        arr, data = declustered()
        assert arr.read(0, arr.capacity) == data

    def test_double_failure_and_rebuild(self):
        arr, data = declustered()
        arr.fail_disk(3)
        arr.fail_disk(7)
        assert arr.read(0, arr.capacity) == data
        arr.rebuild()
        assert arr.read(0, arr.capacity) == data
        for s in range(arr.layout.n_stripes):
            assert arr.code.verify(arr.read_stripe(s))

    def test_rebuild_touches_only_affected_stripes(self):
        arr, _ = declustered()
        arr.fail_disk(5)
        expected = len(arr.layout.stripes_on_disk(5))
        assert arr.rebuild() == expected
        assert expected < arr.layout.n_stripes  # declustering dilutes

    def test_rebuild_reads_spread_over_pool(self):
        """The declustering claim: every survivor contributes, none is
        the bottleneck."""
        arr, _ = declustered(n_pool=12, n_stripes=60)
        for d in arr.disks:
            d.stats.reset()
        arr.fail_disk(4)
        arr.rebuild()
        reads = [d.stats.reads for d in arr.disks if d.disk_id != 4]
        assert all(r > 0 for r in reads)
        assert max(reads) < 2.5 * (sum(reads) / len(reads))

    def test_wider_pool_reduces_per_disk_rebuild_load(self):
        loads = {}
        for pool in (6, 12, 18):
            arr, _ = declustered(n_pool=pool, n_stripes=60)
            for d in arr.disks:
                d.stats.reset()
            arr.fail_disk(0)
            arr.rebuild()
            survivors = [d.stats.reads for d in arr.disks if d.disk_id != 0]
            loads[pool] = max(survivors)
        assert loads[18] < loads[12] < loads[6]

    def test_scrub_works_on_declustered(self):
        arr, data = declustered()
        arr.disks[2].corrupt(arr.layout.stripes_on_disk(2)[0], seed=5)
        report = Scrubber(arr).scrub()
        assert report.stripes_corrected == 1
        assert arr.read(0, arr.capacity) == data
