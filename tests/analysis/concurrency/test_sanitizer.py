"""Runtime alias sanitizer: unit and integration canaries.

The integration canary is the pass/fail proof the ISSUE asks for: a
writer whose ``drain()`` mutates the payload mid-flight -- exactly the
write-after-handoff race the static passes cannot see -- must surface
as an :class:`AliasEvent` through the real ``write_frame`` hook.
"""

import asyncio

import numpy as np
import pytest

from repro.analysis.concurrency import sanitizer
from repro.analysis.concurrency.sanitizer import (
    AliasViolationError,
)
from repro.array.disk import SimulatedDisk
from repro.cluster.protocol import write_frame
from repro.utils.words import words_view


@pytest.fixture(autouse=True)
def _sanitizer_on():
    sanitizer.enable(True)
    sanitizer.clear_events()
    yield
    sanitizer.enable(None)
    sanitizer.clear_events()


class TestGuardCheck:
    def test_clean_handoff_records_nothing(self):
        buf = bytearray(b"payload!")
        tok = sanitizer.guard(buf, "t")
        assert sanitizer.check(tok) is None
        assert sanitizer.events() == ()

    def test_mutation_is_recorded(self):
        buf = bytearray(b"payload!")
        tok = sanitizer.guard(buf, "t")
        buf[3] ^= 0xFF
        event = sanitizer.check(tok)
        assert event is not None and event.site == "t"
        assert sanitizer.events() == (event,)

    def test_numpy_data_views_are_guarded(self):
        arr = np.arange(4, dtype=np.uint64)
        tok = sanitizer.guard(arr.data, "t")
        arr[0] = 99
        assert sanitizer.check(tok) is not None

    def test_bytes_are_skipped(self):
        assert sanitizer.guard(b"immutable", "t") is None

    def test_readonly_views_are_skipped(self):
        assert sanitizer.guard(memoryview(b"x"), "t") is None

    def test_disabled_is_a_noop(self):
        sanitizer.enable(False)
        assert sanitizer.guard(bytearray(4), "t") is None

    def test_one_mutated_strip_of_three_records_one_event(self):
        strips = np.arange(3 * 8, dtype=np.uint64).reshape(3, 2, 4)
        tok = sanitizer.guard([strips[0], strips[1], strips[2]], "t")
        strips[1, 0, 0] ^= 1
        event = sanitizer.check(tok)
        assert event is not None and event.nbytes == strips[1].nbytes
        assert sanitizer.events() == (event,)

    def test_untouched_strips_record_nothing(self):
        strips = np.arange(3 * 8, dtype=np.uint64).reshape(3, 2, 4)
        tok = sanitizer.guard((strips[0], strips[1], strips[2]), "t")
        assert sanitizer.check(tok) is None
        assert sanitizer.events() == ()

    def test_read_only_disk_views_are_skipped(self):
        disk = SimulatedDisk(0, n_strips=2, strip_words=4)
        assert sanitizer.guard([disk.read_view(0), disk.read_view(1)], "t") is None
        assert sanitizer.guard([b"bytes", disk.read_view(0)], "t") is None

    def test_assert_clean_raises_and_consumes(self):
        buf = bytearray(8)
        tok = sanitizer.guard(buf, "site-x")
        buf[0] = 1
        sanitizer.check(tok)
        with pytest.raises(AliasViolationError, match="site-x"):
            sanitizer.assert_clean("case 7")
        # consumed: a second call is clean
        sanitizer.assert_clean()


class TestReadonlyWords:
    def test_words_view_is_readonly_under_sanitizer(self):
        v = words_view(bytearray(16))
        assert not v.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            v[0] = 1

    def test_words_view_writable_when_disabled(self):
        sanitizer.enable(False)
        v = words_view(bytearray(16))
        assert v.flags.writeable


class _MutatingWriter:
    """StreamWriter stand-in whose drain() races the payload."""

    def __init__(self, victim: bytearray) -> None:
        self.victim = victim
        self.sent = bytearray()

    def write(self, data) -> None:
        self.sent += bytes(data)

    async def drain(self) -> None:
        # the concurrent writer the static dataflow can't see
        self.victim[0] ^= 0xFF


class _QuietWriter:
    def write(self, data) -> None:
        pass

    async def drain(self) -> None:
        pass


class TestWriteFrameIntegration:
    def test_mutating_drain_is_caught(self):
        """The canary: a mid-drain write surfaces as an AliasEvent."""
        buf = bytearray(b"stripe-payload-data!")
        writer = _MutatingWriter(buf)
        asyncio.run(write_frame(writer, {"verb": "put"}, memoryview(buf)))
        events = sanitizer.events()
        assert len(events) == 1
        assert events[0].site == "protocol.write_frame"
        with pytest.raises(AliasViolationError):
            sanitizer.assert_clean()

    def test_clean_drain_records_nothing(self):
        buf = bytearray(b"stripe-payload-data!")
        asyncio.run(write_frame(_QuietWriter(), {"verb": "put"}, memoryview(buf)))
        assert sanitizer.events() == ()

    def test_disabled_pays_no_check(self):
        sanitizer.enable(False)
        buf = bytearray(b"stripe-payload-data!")
        writer = _MutatingWriter(buf)
        asyncio.run(write_frame(writer, {"verb": "put"}, memoryview(buf)))
        assert sanitizer.events() == ()


class TestFuzzCrossCheck:
    def test_fuzzer_fails_on_alias_event(self, monkeypatch):
        """A runtime event the static passes missed fails the build:
        the fuzz loop converts it into a FuzzFailure with the case
        attached."""
        from repro.sim import differential

        real_run = differential.run_case_dict

        def poisoned(case, **kw):
            real_run(case, **kw)
            buf = bytearray(8)
            tok = sanitizer.guard(buf, "seeded-by-test")
            buf[0] = 1
            sanitizer.check(tok)

        monkeypatch.setattr(differential, "run_case_dict", poisoned)
        failure = differential.fuzz(seed=0, max_cases=1, shrink=False)
        assert failure is not None
        assert failure.context == {"kind": "alias-sanitizer"}
        assert "seeded-by-test" in failure.error

    def test_fuzz_smoke_is_clean_under_sanitizer(self):
        from repro.sim.differential import fuzz

        assert fuzz(seed=0, max_cases=8, shrink=False) is None
        assert sanitizer.events() == ()
