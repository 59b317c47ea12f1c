"""Cross-subsystem integration scenarios.

Each test threads several subsystems together the way a deployment
would: journaled arrays on declustered layouts, growth followed by
failures, CLI pipelines at realistic parameters, trace replay on
degraded arrays.
"""

import json

import pytest

from repro.array import (
    CrashPoint,
    JournaledRAID6Array,
    RAID6Array,
    Scrubber,
    SimulatedCrash,
)
from repro.array.layout import DeclusteredLayout
from repro.array.replay import parse_trace, replay, synthesize_trace
from repro.array.workloads import payload, sequential_fill
from repro.cli import main as cli_main
from repro.codes import make_code


class TestJournalOnDeclustered:
    def test_crash_recovery_on_wide_pool(self):
        code = make_code("liberation-optimal", 4, p=5, element_size=16)
        layout = DeclusteredLayout(4, 5, 16, 20, n_pool=10, seed=3)
        arr = JournaledRAID6Array(code, layout=layout)
        data = payload(arr.capacity, seed=1)
        arr.write(0, data)
        arr.arm_crash(CrashPoint(2))
        with pytest.raises(SimulatedCrash):
            arr.write(100, payload(48, seed=2))
        arr.arm_crash(None)
        arr.recover()
        for s in range(20):
            assert arr.code.verify(arr.read_stripe(s))
        # Then lose two pool disks and rebuild.
        arr.fail_disk(1)
        arr.fail_disk(8)
        arr.rebuild()
        assert Scrubber(arr).scrub().healthy


class TestGrowthThenFailures:
    def test_grow_fail_rebuild_scrub(self):
        code = make_code("liberation-optimal", 4, p=11, element_size=16)
        arr = RAID6Array(code, n_stripes=6)
        data = b""
        for op in sequential_fill(arr.capacity, arr.layout.stripe_data_bytes, seed=4):
            arr.write(op.offset, op.data)
            data += op.data
        translate = arr.grow_data_disk()
        translate2 = arr.grow_data_disk()
        # Old data still addressable after two growths.
        old_sdb = 4 * code.strip_bytes
        for s in range(6):
            off = translate2(translate(s * old_sdb))
            assert arr.read(off, old_sdb) == data[s * old_sdb : (s + 1) * old_sdb]
        # Failures + silent corruption on the grown array.
        arr.fail_disk(0)
        arr.rebuild()
        arr.disks[2].corrupt(1, seed=9)
        assert Scrubber(arr).scrub().stripes_corrected == 1


class TestTraceReplayDegraded:
    def test_uniform_trace_survives_double_failure(self):
        code = make_code("liberation-optimal", 6, p=7, element_size=64)
        arr = RAID6Array(code, n_stripes=10)
        arr.write(0, payload(arr.capacity, seed=5))
        arr.fail_disk(2)
        arr.fail_disk(5)
        trace = synthesize_trace("uniform", arr.capacity, n_ops=60, io_size=64,
                                 read_fraction=0.6, seed=6)
        stats = replay(arr, parse_trace(trace))
        assert stats.ops == 60
        assert stats.degraded_reads > 0
        arr.rebuild()
        assert Scrubber(arr).scrub().healthy


class TestCliAtPaperScale:
    def test_p31_roundtrip(self, tmp_path):
        src = tmp_path / "blob.bin"
        src.write_bytes(payload(200_000, seed=7))
        assert cli_main([
            "encode", str(src), "--k", "23", "--p", "31",
            "--element-size", "64", "--out-dir", str(tmp_path / "s"),
        ]) == 0
        manifest = tmp_path / "s" / "blob.bin.manifest.json"
        meta = json.loads(manifest.read_text())
        assert meta["p"] == 31 and meta["k"] == 23
        (tmp_path / "s" / "blob.bin.d11").unlink()
        (tmp_path / "s" / "blob.bin.d22").unlink()
        out = tmp_path / "out.bin"
        assert cli_main(["decode", str(manifest), "-o", str(out)]) == 0
        assert out.read_bytes() == src.read_bytes()

    def test_cauchy_cli(self, tmp_path):
        src = tmp_path / "c.bin"
        src.write_bytes(payload(10_000, seed=8))
        assert cli_main([
            "encode", str(src), "--k", "5", "--code", "cauchy-rs",
            "--element-size", "64", "--out-dir", str(tmp_path / "s"),
        ]) == 0
        manifest = tmp_path / "s" / "c.bin.manifest.json"
        (tmp_path / "s" / "c.bin.p").unlink()
        (tmp_path / "s" / "c.bin.d0").unlink()
        out = tmp_path / "o.bin"
        assert cli_main(["decode", str(manifest), "-o", str(out)]) == 0
        assert out.read_bytes() == src.read_bytes()


class TestErrorCorrectionBehindScrubberAtScale:
    def test_p31_scrub(self):
        code = make_code("liberation-optimal", 23, p=31, element_size=16)
        arr = RAID6Array(code, n_stripes=3)
        data = payload(arr.capacity, seed=11)
        arr.write(0, data)
        arr.disks[7].corrupt(1, seed=12)
        arr.disks[20].corrupt(2, seed=13)
        report = Scrubber(arr).scrub()
        assert report.stripes_corrected == 2
        assert arr.read(0, arr.capacity) == data
