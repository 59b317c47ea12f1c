"""The benchmark-regression gate: delta semantics, the trajectory
file, and the CLI exit codes the acceptance criteria pin down."""

import json

import pytest

from repro.cli import main
from repro.obs.regress import (
    DEFAULT_TOLERANCE,
    FLOORS,
    KERNEL_SPEEDUP_FLOOR,
    Delta,
    PerfFileError,
    check_floors,
    compare,
    load_perf,
    regress,
    run_perf_suite,
    save_perf,
)


class TestDelta:
    def test_higher_is_better_regresses_on_drop(self):
        d = Delta("gbps", baseline=2.0, current=1.6, direction="higher",
                  tolerance=0.15)
        assert d.regressed
        ok = Delta("gbps", baseline=2.0, current=1.8, direction="higher",
                   tolerance=0.15)
        assert not ok.regressed

    def test_lower_is_better_regresses_on_rise(self):
        d = Delta("xors", baseline=70.0, current=90.0, direction="lower",
                  tolerance=0.15)
        assert d.regressed
        ok = Delta("xors", baseline=70.0, current=70.0, direction="lower",
                   tolerance=0.15)
        assert not ok.regressed

    def test_improvements_never_regress(self):
        assert not Delta("gbps", 2.0, 4.0, "higher", 0.15).regressed
        assert not Delta("xors", 70.0, 35.0, "lower", 0.15).regressed

    def test_row_verdict(self):
        d = Delta("m", 2.0, 0.9, "higher", 0.15)
        assert d.row()["verdict"] == "REGRESSED"
        assert d.ratio == pytest.approx(0.45)


class TestCompare:
    def _payload(self, **metrics):
        return {"schema": 1, "metrics": {
            name: {"value": value, "unit": "x", "direction": direction}
            for name, (value, direction) in metrics.items()}}

    def test_only_shared_metrics_compare(self):
        base = self._payload(a=(1.0, "higher"), gone=(2.0, "higher"))
        cur = self._payload(a=(1.0, "higher"), new=(3.0, "higher"))
        deltas = compare(base, cur, tolerance=0.1)
        assert [d.metric for d in deltas] == ["a"]

    def test_direction_comes_from_current(self):
        base = self._payload(m=(10.0, "higher"))
        cur = self._payload(m=(20.0, "lower"))
        (d,) = compare(base, cur, tolerance=0.15)
        assert d.direction == "lower"
        assert d.regressed


class TestPerfSuite:
    def test_quick_suite_shape(self):
        payload = run_perf_suite(quick=True)
        metrics = payload["metrics"]
        assert payload["schema"] == 1
        assert payload["quick"] is True
        assert "encode_xors/liberation-optimal/k6" in metrics
        assert "encode_gbps/liberation-optimal/k6/4KB" in metrics
        # The object gateway reports into the same trajectory (sim-seam
        # workload in quick mode; socket saturation joins in full mode).
        assert "gateway_ops/sim/mixed" in metrics
        assert "gateway_ops/socket/mixed" not in metrics
        # XOR counts are exact schedule properties: k=6 on p=7 obeys
        # the paper's 2w(k-1) encode bound for the optimal code.
        assert metrics["encode_xors/liberation-optimal/k6"]["value"] == 70.0
        for m in metrics.values():
            assert m["direction"] in ("higher", "lower")
            assert m["value"] > 0

    def test_save_load_round_trip(self, tmp_path):
        payload = {"schema": 1, "metrics": {"m": {"value": 1.0}}}
        path = save_perf(payload, tmp_path / "BENCH_perf.json")
        assert load_perf(path) == payload
        assert load_perf(tmp_path / "absent.json") is None


class TestRegressGate:
    def test_first_run_has_no_baseline_and_passes(self, tmp_path):
        out = tmp_path / "BENCH_perf.json"
        deltas, current, baseline = regress(out_path=out, quick=True)
        assert baseline is None
        assert deltas == []
        assert out.exists()

    def test_second_run_compares_against_the_first(self, tmp_path):
        out = tmp_path / "BENCH_perf.json"
        regress(out_path=out, quick=True)
        deltas, _current, baseline = regress(out_path=out, quick=True)
        assert baseline is not None
        assert len(deltas) == 7  # 4 xor + 2 throughput + gateway sim ops
        # XOR counts are deterministic, so those deltas are exactly 1.0.
        xor_deltas = [d for d in deltas if "xors" in d.metric]
        assert xor_deltas and all(d.ratio == 1.0 for d in xor_deltas)

    def test_cli_back_to_back_exits_zero(self, tmp_path):
        """The pass path of the CLI.  Two wall-clock runs can differ by
        more than the tolerance on a busy host, so the second compares
        against a baseline no run falls behind: every higher-is-better
        value halved (the mirror of the 2x slowdown test below)."""
        out = tmp_path / "BENCH_perf.json"
        assert main(["bench", "regress", "--quick", "--out", str(out)]) == 0
        halved = json.loads(out.read_text())
        for m in halved["metrics"].values():
            if m["direction"] == "higher":
                m["value"] /= 2.0  # "we used to be half as fast"
        baseline = tmp_path / "halved.json"
        baseline.write_text(json.dumps(halved))
        assert main(["bench", "regress", "--quick", "--out", str(out),
                     "--baseline", str(baseline)]) == 0

    def test_cli_injected_2x_slowdown_exits_nonzero(self, tmp_path):
        """Acceptance: a doctored baseline claiming 2x the measured
        throughput must trip the gate (a real 2x slowdown looks exactly
        like this to the comparator)."""
        out = tmp_path / "BENCH_perf.json"
        assert main(["bench", "regress", "--quick", "--out", str(out)]) == 0
        doctored = json.loads(out.read_text())
        for name, m in doctored["metrics"].items():
            if m["direction"] == "higher":
                m["value"] *= 2.0  # "we used to be twice as fast"
        baseline = tmp_path / "doctored.json"
        baseline.write_text(json.dumps(doctored))
        rc = main(["bench", "regress", "--quick", "--out", str(out),
                   "--baseline", str(baseline)])
        assert rc == 1

    def test_quick_mode_measures_no_kernel_metrics(self, tmp_path):
        # The floor metrics need long timing windows; quick mode (the
        # PR soft gate / test suite path) must not pretend to measure
        # them, or the floor would gate on noise.
        _deltas, current, _ = regress(out_path=tmp_path / "p.json", quick=True)
        assert not any(n.startswith("kernel_") for n in current["metrics"])

    def test_xor_count_increase_trips_the_gate(self, tmp_path):
        out = tmp_path / "BENCH_perf.json"
        regress(out_path=out, quick=True)
        doctored = json.loads(out.read_text())
        # Pretend the optimal encode schedule used to be 20% leaner:
        # today's exact count then reads as a complexity regression.
        key = "encode_xors/liberation-optimal/k6"
        doctored["metrics"][key]["value"] /= 1.2
        baseline = tmp_path / "doctored.json"
        baseline.write_text(json.dumps(doctored))
        deltas, _, _ = regress(out_path=out, baseline_path=baseline,
                               tolerance=DEFAULT_TOLERANCE, quick=True)
        assert any(d.metric == key and d.regressed for d in deltas)


class TestKernelFloors:
    """The >= 5x kernel-speedup floor: absolute, first-run inclusive."""

    @staticmethod
    def _payload(**values):
        return {"schema": 1, "metrics": {
            name: {"value": value, "unit": "x", "direction": "higher"}
            for name, value in values.items()}}

    def test_floor_names_cover_encode_and_decode(self):
        assert FLOORS == {
            "kernel_speedup/encode/p11/4KB": KERNEL_SPEEDUP_FLOOR,
            "kernel_speedup/decode/p11/4KB": KERNEL_SPEEDUP_FLOOR,
        }
        assert KERNEL_SPEEDUP_FLOOR == 5.0

    def test_above_floor_passes(self):
        payload = self._payload(**{name: 5.3 for name in FLOORS})
        deltas = check_floors(payload)
        assert len(deltas) == len(FLOORS)
        assert not any(d.regressed for d in deltas)
        assert all(d.metric.endswith("[floor]") for d in deltas)

    def test_below_floor_minus_tolerance_regresses(self):
        bad = KERNEL_SPEEDUP_FLOOR * (1 - DEFAULT_TOLERANCE) - 0.01
        payload = self._payload(**{name: bad for name in FLOORS})
        assert all(d.regressed for d in check_floors(payload))

    def test_within_tolerance_of_floor_passes(self):
        # The floor shares the ratchet's noise semantics: a contended
        # machine measuring 4.4x against a 5.0 floor is within the 15%
        # band, not a regression.
        near = KERNEL_SPEEDUP_FLOOR * (1 - DEFAULT_TOLERANCE) + 0.01
        payload = self._payload(**{name: near for name in FLOORS})
        assert not any(d.regressed for d in check_floors(payload))

    def test_unmeasured_metrics_are_skipped(self):
        assert check_floors({"schema": 1, "metrics": {}}) == []


class TestPerfFileErrors:
    """Satellite: missing/empty baseline files get their own exit path."""

    def test_explicit_missing_baseline_is_exit_2(self, tmp_path, capsys):
        rc = main(["bench", "regress", "--quick",
                   "--out", str(tmp_path / "out.json"),
                   "--baseline", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "bench gate ERROR" in capsys.readouterr().out
        # Fails fast: nothing was measured, so nothing was written.
        assert not (tmp_path / "out.json").exists()

    def test_empty_baseline_is_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        rc = main(["bench", "regress", "--quick",
                   "--out", str(tmp_path / "out.json"),
                   "--baseline", str(empty)])
        assert rc == 2
        assert "empty" in capsys.readouterr().out

    def test_invalid_json_baseline_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["bench", "regress", "--quick",
                   "--out", str(tmp_path / "out.json"), "--baseline", str(bad)])
        assert rc == 2

    def test_metricsless_baseline_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 1}))
        rc = main(["bench", "regress", "--quick",
                   "--out", str(tmp_path / "out.json"), "--baseline", str(bad)])
        assert rc == 2

    def test_load_perf_raises_on_corrupt_default_path(self, tmp_path):
        # Even the non-required path refuses to ratchet past a corrupt
        # trajectory file (absent stays a clean first run).
        path = tmp_path / "BENCH_perf.json"
        path.write_text("  ")
        with pytest.raises(PerfFileError):
            load_perf(path)
        assert load_perf(tmp_path / "absent.json") is None
        with pytest.raises(PerfFileError):
            load_perf(tmp_path / "absent.json", required=True)
