"""Tests for the MTTDL / URE reliability models."""

import pytest

from repro.analysis.reliability import (
    DiskModel,
    mttdl_raid5,
    mttdl_raid6,
    rebuild_read_failure_probability,
)


NEARLINE = DiskModel(
    mtbf_hours=1.2e6, capacity_bytes=16e12, ure_per_bit=1e-15, rebuild_hours=30
)


class TestDiskModel:
    def test_rates(self):
        assert NEARLINE.failure_rate == pytest.approx(1 / 1.2e6)
        assert NEARLINE.repair_rate == pytest.approx(1 / 30)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskModel(mtbf_hours=0)
        with pytest.raises(ValueError):
            DiskModel(ure_per_bit=1.5)


class TestUREProbability:
    def test_zero_disks(self):
        assert rebuild_read_failure_probability(NEARLINE, 0) == 0.0

    def test_monotone_in_disks(self):
        values = [rebuild_read_failure_probability(NEARLINE, n) for n in (1, 4, 9, 20)]
        assert values == sorted(values)
        assert all(0 < v < 1 for v in values)

    def test_matches_small_exponent_approximation(self):
        """For tiny p*bits, P ~= p * bits."""
        d = DiskModel(capacity_bytes=1e9, ure_per_bit=1e-18)
        p = rebuild_read_failure_probability(d, 1)
        assert p == pytest.approx(1e9 * 8 * 1e-18, rel=1e-6)

    def test_large_capacity_saturates(self):
        d = DiskModel(capacity_bytes=1e15, ure_per_bit=1e-14)
        assert rebuild_read_failure_probability(d, 10) > 0.999

    def test_negative_disks_rejected(self):
        with pytest.raises(ValueError):
            rebuild_read_failure_probability(NEARLINE, -1)


class TestMTTDL:
    def test_raid6_dominates_raid5(self):
        for n in (4, 8, 12, 24):
            assert mttdl_raid6(NEARLINE, n) > 50 * mttdl_raid5(NEARLINE, n)

    def test_decreases_with_group_size(self):
        v5 = [mttdl_raid5(NEARLINE, n) for n in (4, 8, 16)]
        v6 = [mttdl_raid6(NEARLINE, n) for n in (4, 8, 16)]
        assert v5 == sorted(v5, reverse=True)
        assert v6 == sorted(v6, reverse=True)

    def test_raid5_classic_formula_when_no_ure(self):
        """Without UREs the model must collapse to the PGK textbook
        result MTTDL ~= mu / (n (n-1) lam^2) for mu >> lam."""
        d = DiskModel(mtbf_hours=1e6, capacity_bytes=1e12, ure_per_bit=0.0,
                      rebuild_hours=10)
        n = 8
        classic = d.repair_rate / (n * (n - 1) * d.failure_rate**2)
        assert mttdl_raid5(d, n) == pytest.approx(classic, rel=0.01)

    def test_raid6_classic_formula_when_no_ure(self):
        """mu^2 / (n (n-1) (n-2) lam^3) in the same limit."""
        d = DiskModel(mtbf_hours=1e6, capacity_bytes=1e12, ure_per_bit=0.0,
                      rebuild_hours=10)
        n = 8
        classic = d.repair_rate**2 / (n * (n - 1) * (n - 2) * d.failure_rate**3)
        assert mttdl_raid6(d, n) == pytest.approx(classic, rel=0.01)

    def test_ure_collapses_raid5(self):
        """The §I story: at modern capacity/UER, RAID-5's MTTDL is
        bounded by rebuild failures, not double-disk failures."""
        big = DiskModel(mtbf_hours=1.2e6, capacity_bytes=20e12,
                        ure_per_bit=1e-14, rebuild_hours=40)
        p_ure = rebuild_read_failure_probability(big, 9)
        assert p_ure > 0.9  # rebuild almost certainly hits a URE
        # ... so MTTDL ~= time to first failure = mtbf / n.
        assert mttdl_raid5(big, 10) < 2 * big.mtbf_hours / 10

    def test_raid6_survives_the_same_disks(self):
        big = DiskModel(mtbf_hours=1.2e6, capacity_bytes=20e12,
                        ure_per_bit=1e-14, rebuild_hours=40)
        years = mttdl_raid6(big, 10) / 8760
        assert years > 100

    def test_group_size_validation(self):
        with pytest.raises(ValueError):
            mttdl_raid5(NEARLINE, 2)
        with pytest.raises(ValueError):
            mttdl_raid6(NEARLINE, 3)
