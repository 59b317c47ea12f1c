"""Gauges, histogram merging, the default registry, and Prometheus
text exposition."""

import pytest

from repro.obs.metrics import (
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    quantiles_from_buckets,
    set_default_registry,
    to_prometheus,
)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth")
        g.set(10)
        g.inc(2.5)
        g.dec()
        assert g.value == 11.5

    def test_registry_accessor_is_stable(self):
        reg = MetricsRegistry()
        reg.gauge("q").set(3)
        assert reg.gauge("q").value == 3.0

    def test_snapshot_omits_gauges_when_empty(self):
        # Wire compat: pre-obs nodes never sent a "gauges" key.
        reg = MetricsRegistry()
        reg.counter("x").inc()
        assert "gauges" not in reg.snapshot()
        reg.gauge("g").set(1)
        assert reg.snapshot()["gauges"] == {"g": 1.0}

    def test_rows_include_gauges(self):
        reg = MetricsRegistry()
        reg.gauge("live_nodes").set(5)
        rows = MetricsRegistry.rows(reg.snapshot())
        assert {"metric": "live_nodes", "value": 5.0} in rows


class TestHistogramMerge:
    def test_merged_buckets_equal_combined_stream(self):
        """The mergeability contract: merging snapshots equals observing
        the union stream into one histogram, exactly."""
        values_a = [0.0001, 0.003, 0.02, 1.0]
        values_b = [0.0005, 0.003, 5.0]
        a, b, union = MetricsRegistry(), MetricsRegistry(), Histogram("lat")
        for v in values_a:
            a.histogram("lat").observe(v)
        for v in values_b:
            b.histogram("lat").observe(v)
        for v in values_a + values_b:
            union.observe(v)
        merged = MetricsRegistry.merge([a.snapshot(), b.snapshot()])
        lat = merged["histograms"]["lat"]
        want = union.snapshot()
        assert lat["buckets"] == want["buckets"]
        assert lat["count"] == want["count"]
        assert lat["sum"] == pytest.approx(want["sum"])
        assert lat["p50"] == want["p50"]
        assert lat["p99"] == want["p99"]

    def test_merge_carries_cross_node_caveat(self):
        reg = MetricsRegistry()
        reg.histogram("lat").observe(0.1)
        merged = MetricsRegistry.merge([reg.snapshot()])
        assert "per-node tails" in merged["histograms"]["lat"]["caveat"]

    def test_merge_skips_legacy_snapshots_without_buckets(self):
        legacy = {"counters": {}, "histograms": {
            "lat": {"count": 3, "sum": 0.3, "mean": 0.1,
                    "p50": 0.1, "p95": 0.1, "p99": 0.1}}}
        merged = MetricsRegistry.merge([legacy])
        assert merged["histograms"] == {}

    def test_merge_rejects_mixed_grids(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("lat", base=1e-4).observe(0.1)
        b.histogram("lat", base=1e-3).observe(0.1)
        with pytest.raises(ValueError, match="grids"):
            MetricsRegistry.merge([a.snapshot(), b.snapshot()])

    def test_merge_sums_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("strips").set(4)
        b.gauge("strips").set(6)
        merged = MetricsRegistry.merge([a.snapshot(), b.snapshot()])
        assert merged["gauges"] == {"strips": 10.0}


class TestDefaultRegistry:
    def test_swap_and_restore(self):
        fresh = MetricsRegistry()
        old = set_default_registry(fresh)
        try:
            assert default_registry() is fresh
            default_registry().counter("hits").inc()
            assert fresh.get("hits") == 1
        finally:
            set_default_registry(old)
        assert default_registry() is old


class TestPrometheus:
    def _snapshot(self):
        reg = MetricsRegistry()
        reg.counter("requests_get").inc(7)
        reg.gauge("disk_failed").set(0)
        h = reg.histogram("request_seconds", base=1e-3)
        for v in (0.0005, 0.002, 0.002, 0.1):
            h.observe(v)
        return reg.snapshot()

    def test_counter_rendering(self):
        text = to_prometheus(self._snapshot())
        assert "# TYPE repro_requests_get_total counter" in text
        assert "repro_requests_get_total 7" in text

    def test_gauge_rendering(self):
        text = to_prometheus(self._snapshot())
        assert "# TYPE repro_disk_failed gauge" in text
        assert "repro_disk_failed 0" in text

    def test_histogram_cumulative_buckets(self):
        text = to_prometheus(self._snapshot())
        assert "# TYPE repro_request_seconds histogram" in text
        # base=1e-3: 0.0005 lands in bucket 0 (le=0.001); the two 0.002s
        # land in bucket 2 (le=0.004 -- exact powers of the grid go one
        # bucket up); buckets are cumulative.
        assert 'repro_request_seconds_bucket{le="0.001"} 1' in text
        assert 'repro_request_seconds_bucket{le="0.004"} 3' in text
        assert 'repro_request_seconds_bucket{le="+Inf"} 4' in text
        assert "repro_request_seconds_count 4" in text
        assert "repro_request_seconds_sum 0.1045" in text

    def test_labels_attach_to_every_sample(self):
        text = to_prometheus(self._snapshot(), labels={"column": "3"})
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            assert 'column="3"' in line

    def test_metric_names_are_sanitised(self):
        reg = MetricsRegistry()
        reg.counter("weird-name.with/stuff").inc()
        text = to_prometheus(reg.snapshot())
        assert "repro_weird_name_with_stuff_total 1" in text

    def test_empty_snapshot_renders_empty(self):
        assert to_prometheus(MetricsRegistry().snapshot()) == ""


class TestQuantilesFromBuckets:
    """The interpolated estimator behind the workload driver's
    p50/p90/p99 report, checked against exact percentiles."""

    @staticmethod
    def exact_percentile(values, q):
        """Nearest-rank percentile: value at rank ceil(q * n)."""
        import math

        ordered = sorted(values)
        rank = max(1, math.ceil(q * len(ordered)))
        return ordered[rank - 1]

    def test_estimates_track_exact_percentiles_within_bucket_width(self):
        import random

        rng = random.Random(42)
        values = [rng.uniform(0.0001, 0.5) for _ in range(2000)]
        h = Histogram("lat", base=1e-4)
        for v in values:
            h.observe(v)
        for q in (0.5, 0.9, 0.99):
            (est,) = h.quantiles([q])
            exact = self.exact_percentile(values, q)
            # The estimate lives inside the exact value's log2 bucket:
            # off by at most one bucket width (a factor of two).
            assert exact / 2 <= est <= exact * 2, (q, est, exact)

    def test_interpolation_beats_upper_edge_inside_a_bucket(self):
        # 100 observations spread uniformly across one bucket
        # (0.8, 1.6]: the upper-edge quantile answers 1.6 for every q,
        # the interpolated estimate moves through the bucket.
        h = Histogram("lat", base=0.1)
        for i in range(100):
            h.observe(0.8 + (i + 0.5) * 0.008)
        assert h.quantile(0.5) == pytest.approx(1.6)
        p25, p50, p75 = h.quantiles([0.25, 0.5, 0.75])
        assert 0.9 < p25 < 1.1
        assert 1.15 < p50 < 1.25
        assert 1.35 < p75 < 1.45

    def test_monotone_in_q(self):
        h = Histogram("lat", base=1e-4)
        for v in (0.0001, 0.002, 0.002, 0.03, 0.4, 0.4, 5.0):
            h.observe(v)
        qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
        est = h.quantiles(qs)
        assert est == sorted(est)

    def test_empty_histogram_estimates_zero(self):
        assert Histogram("lat").quantiles([0.5, 0.99]) == [0.0, 0.0]
        assert quantiles_from_buckets(1e-4, [], [0.5]) == [0.0]

    def test_all_mass_in_bucket_zero_interpolates_from_zero(self):
        # Bucket 0 spans [0, base]: with 4 observations there, the
        # median interpolates to base / 2, not the upper edge.
        p50, p100 = quantiles_from_buckets(0.001, [4], [0.5, 1.0])
        assert p50 == pytest.approx(0.0005)
        assert p100 == pytest.approx(0.001)

    def test_out_of_range_quantile_rejected(self):
        with pytest.raises(ValueError):
            quantiles_from_buckets(1e-4, [1], [1.5])
        h = Histogram("lat")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.quantiles([-0.1])

    def test_matches_histogram_delegation(self):
        h = Histogram("lat", base=1e-3)
        for v in (0.0005, 0.002, 0.002, 0.1):
            h.observe(v)
        assert h.quantiles([0.5, 0.9]) == quantiles_from_buckets(
            1e-3, h.counts, [0.5, 0.9]
        )
