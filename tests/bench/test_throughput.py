"""Tests for the throughput harness (small, fast configurations)."""

from repro.bench.throughput import (
    ThroughputResult,
    decode_throughput_series,
    encode_throughput_series,
    element_size_series,
    make_bench_code,
    measure_decode,
    measure_encode,
)


FAST = dict(inner=2, repeats=1)


class TestMeasureEncode:
    def test_result_fields(self):
        res = measure_encode("liberation-optimal", 4, element_size=64, **FAST)
        assert isinstance(res, ThroughputResult)
        assert res.k == 4 and res.p == 5 and res.element_size == 64
        assert res.gbps > 0 and res.seconds_per_call > 0

    def test_explicit_p(self):
        res = measure_encode("liberation-optimal", 4, p=11, element_size=64, **FAST)
        assert res.p == 11

    def test_bench_code_is_streaming(self):
        code = make_bench_code("liberation-original", 4, None, 64)
        assert code.execution == "streaming"


class TestMeasureDecode:
    def test_runs_and_positive(self):
        res = measure_decode(
            "liberation-optimal", 4, element_size=64, max_pairs=2, **FAST
        )
        assert res.gbps > 0

    def test_original_slower_than_optimal(self):
        """The paper's headline direction must hold even at toy sizes:
        the original pays a matrix inversion per decode call."""
        opt = measure_decode(
            "liberation-optimal", 6, p=7, element_size=256, max_pairs=3, **FAST
        )
        orig = measure_decode(
            "liberation-original", 6, p=7, element_size=256, max_pairs=3, **FAST
        )
        assert opt.gbps > orig.gbps


class TestSeries:
    def test_encode_series_shape(self):
        rows = encode_throughput_series([3, 4], element_size=64, **FAST)
        assert [r["k"] for r in rows] == [3, 4]
        for r in rows:
            assert r["liberation-original"] > 0
            assert r["liberation-optimal"] > 0

    def test_decode_series_shape(self):
        rows = decode_throughput_series(
            [3, 4], element_size=64, max_pairs=2, **FAST
        )
        assert len(rows) == 2

    def test_element_size_series_shape(self):
        data = element_size_series(p_values=(5,), log2_sizes=(6, 7), **FAST)
        assert list(data) == [5]
        assert [r["log2_elem"] for r in data[5]] == [6, 7]

    def test_fixed_p_series(self):
        rows = encode_throughput_series([3, 5], p=7, element_size=64, **FAST)
        assert len(rows) == 2
