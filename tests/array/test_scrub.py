"""Tests for scrubbing and fault injection."""

import pytest

from repro.array import FaultInjector, RAID6Array, Scrubber
from repro.array.workloads import payload
from repro.codes import make_code


def build(name="liberation-optimal", k=4, p=5, n_stripes=12):
    code = make_code(name, k, p=p, element_size=16)
    arr = RAID6Array(code, n_stripes=n_stripes)
    data = payload(arr.capacity, seed=3)
    arr.write(0, data)
    return arr, data


class TestScrubClean:
    def test_clean_array(self):
        arr, _ = build()
        report = Scrubber(arr).scrub()
        assert report.stripes_scanned == 12
        assert report.stripes_clean == 12
        assert report.healthy


class TestScrubRepairs:
    def test_single_corruption_located_and_fixed(self):
        arr, data = build()
        arr.disks[2].corrupt(5, seed=1)
        report = Scrubber(arr).scrub()
        assert report.stripes_corrected == 1
        assert report.corrected[0][0] == 5  # the stripe
        assert arr.read(0, arr.capacity) == data
        assert Scrubber(arr).scrub().stripes_clean == 12

    def test_many_distinct_stripes(self):
        arr, data = build()
        injector = FaultInjector(arr, seed=7)
        hits = injector.corrupt_random_strips(6)
        report = Scrubber(arr).scrub()
        assert report.stripes_corrected == len({s for (_d, s) in hits})
        assert report.healthy
        assert arr.read(0, arr.capacity) == data

    def test_parity_strip_corruption(self):
        arr, data = build()
        # Stripe 4's P column lives on disk (p_col + 4) % 6.
        pdisk = arr.layout.disk_for(4, arr.code.p_col)
        arr.disks[pdisk].corrupt(4, seed=2)
        report = Scrubber(arr).scrub()
        assert report.stripes_corrected == 1
        assert arr.read(0, arr.capacity) == data
        assert arr.code.verify(arr.read_stripe(4))

    def test_detect_only_mode(self):
        arr, data = build()
        arr.disks[1].corrupt(2, seed=3)
        report = Scrubber(arr).scrub(repair=False)
        assert report.stripes_uncorrectable == 1
        assert not report.healthy

    def test_non_locating_code_detects_only(self):
        arr, _ = build(name="evenodd")
        arr.disks[1].corrupt(2, seed=4)
        report = Scrubber(arr).scrub()
        assert report.stripes_uncorrectable == 1
        assert report.uncorrectable == [2]


class TestDetectOnlyFallbackSurfacing:
    def test_fallback_is_flagged_in_the_report(self):
        arr, _ = build(name="evenodd")
        report = Scrubber(arr).scrub()
        assert report.detect_only_fallback
        assert report.healthy  # nothing wrong, merely locator-less

    def test_locating_code_does_not_flag(self):
        arr, _ = build()
        report = Scrubber(arr).scrub()
        assert not report.detect_only_fallback
        # repair=False is a deliberate choice, not a fallback.
        assert not Scrubber(arr).scrub(repair=False).detect_only_fallback

    def test_fallback_logs_a_warning(self, caplog):
        import logging

        arr, _ = build(name="evenodd")
        with caplog.at_level(logging.WARNING, logger="repro.array.scrub"):
            Scrubber(arr)
        assert any("no single-column error locator" in r.message
                   for r in caplog.records)

    def test_locating_code_stays_quiet(self, caplog):
        import logging

        arr, _ = build()
        with caplog.at_level(logging.WARNING, logger="repro.array.scrub"):
            Scrubber(arr)
        assert not caplog.records


class TestFaultInjector:
    def test_fail_random_disks(self):
        arr, data = build()
        injector = FaultInjector(arr, seed=5)
        failed = injector.fail_random_disks(2)
        assert sorted(failed) == sorted(arr.failed_disks())
        assert arr.read(0, arr.capacity) == data

    def test_too_many_failures_rejected(self):
        arr, _ = build()
        injector = FaultInjector(arr, seed=5)
        with pytest.raises(ValueError):
            injector.fail_random_disks(7)

    def test_latent_errors_recoverable(self):
        arr, data = build()
        injector = FaultInjector(arr, seed=6)
        injected = injector.inject_latent_errors(4)
        assert len(injected) == 4
        assert arr.read(0, arr.capacity) == data

    def test_injection_log(self):
        arr, _ = build()
        injector = FaultInjector(arr, seed=8)
        injector.corrupt_random_strips(3)
        injector.inject_latent_errors(2)
        assert len(injector.log.corruptions) == 3
        assert len(injector.log.latent_errors) == 2

    def test_distinct_stripes_constraint(self):
        arr, _ = build()
        injector = FaultInjector(arr, seed=9)
        hits = injector.corrupt_random_strips(8)
        stripes = [s for (_d, s) in hits]
        assert len(set(stripes)) == len(stripes)


class TestCombinedScenario:
    def test_corruption_then_disk_loss(self):
        """Scrub first, then survive a double failure -- the §I story."""
        arr, data = build(n_stripes=10)
        FaultInjector(arr, seed=10).corrupt_random_strips(3)
        assert Scrubber(arr).scrub().healthy
        arr.fail_disk(0)
        arr.fail_disk(3)
        assert arr.read(0, arr.capacity) == data
        arr.rebuild()
        assert Scrubber(arr).scrub().stripes_clean == 10
