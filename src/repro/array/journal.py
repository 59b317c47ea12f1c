"""Write-hole protection: a parity-update journal with crash recovery.

RAID-5/6 small writes update a data strip and its parity strips
non-atomically; a crash between those writes leaves the stripe's parity
inconsistent (**the RAID write hole**).  The inconsistency is silent --
until a disk later fails and reconstruction, computed from mismatched
parity, returns garbage for an *unrelated* strip of the same stripe.

:class:`JournaledRAID6Array` closes the hole the way production arrays
do (NVRAM / journal device): every multi-strip update first logs an
*intent record* (stripe + new strip images) to a journal with atomic
record appends, then performs the disk writes, then retires the record.
After a crash, :meth:`JournaledRAID6Array.recover` replays every
unretired record -- rewriting the logged strips in full -- which makes
each logged update atomic: the stripe ends up entirely-new and
consistent, no matter where the crash landed.

Crash injection is deterministic: :class:`CrashPoint` raises
:class:`SimulatedCrash` after a chosen number of strip writes, so tests
can sweep *every* crash position of a workload
(`tests/array/test_journal.py`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.array.raid6 import RAID6Array
from repro.utils.words import WORD_DTYPE

__all__ = [
    "SimulatedCrash",
    "CrashPoint",
    "JournalRecord",
    "StripeJournal",
    "JournaledRAID6Array",
]


class SimulatedCrash(Exception):
    """Power loss: raised mid-update by a :class:`CrashPoint`."""


class CrashPoint:
    """Deterministic crash trigger: fires after ``after`` strip writes."""

    def __init__(self, after: int) -> None:
        self.remaining = int(after)

    def on_write(self) -> None:
        if self.remaining == 0:
            raise SimulatedCrash("power lost during strip write")
        self.remaining -= 1


@dataclass
class JournalRecord:
    """One logged intent: full new images of the strips being changed."""

    seq: int
    stripe: int
    strips: dict[int, np.ndarray]  # column -> new strip contents (rows, words)
    retired: bool = False


class StripeJournal:
    """An NVRAM-like intent log with atomic appends and retirement.

    The simulation assumes record append and retirement are atomic
    (real journals achieve this with checksummed sequenced records);
    everything *between* them -- the actual disk writes -- may be torn.
    """

    def __init__(self) -> None:
        self._records: list[JournalRecord] = []
        self._next_seq = 0

    def log(self, stripe: int, strips: dict[int, np.ndarray]) -> JournalRecord:
        rec = JournalRecord(
            self._next_seq,
            stripe,
            {col: np.array(data, dtype=WORD_DTYPE, copy=True) for col, data in strips.items()},
        )
        self._next_seq += 1
        self._records.append(rec)
        return rec

    def retire(self, rec: JournalRecord) -> None:
        rec.retired = True
        # Keep the log bounded, like a circular NVRAM region.
        while self._records and self._records[0].retired:
            self._records.pop(0)

    def pending(self) -> list[JournalRecord]:
        """Unretired records in append order."""
        return [r for r in self._records if not r.retired]

    def __len__(self) -> int:
        return len(self._records)


class JournaledRAID6Array(RAID6Array):
    """A RAID-6 array whose stripe updates are crash-atomic."""

    def __init__(
        self,
        code,
        n_stripes: int = 64,
        journal: StripeJournal | None = None,
        *,
        layout=None,
    ) -> None:
        super().__init__(code, n_stripes=n_stripes, layout=layout)
        self.journal = journal if journal is not None else StripeJournal()
        self._crash_point: CrashPoint | None = None

    # -- crash plumbing ----------------------------------------------------

    def arm_crash(self, crash: CrashPoint | None) -> None:
        """Install (or clear) a crash trigger for subsequent writes."""
        self._crash_point = crash

    def write_stripe(self, stripe, buf, *, columns=None, skip_failed=True):
        code = self.code
        cols = list(range(code.n_cols)) if columns is None else list(columns)
        for col in cols:
            disk = self.disks[self.layout.disk_for(stripe, col)]
            if disk.failed and skip_failed:
                continue
            if self._crash_point is not None:
                self._crash_point.on_write()
            disk.write_strip(stripe, buf[col].reshape(-1))

    # -- journaled update paths ------------------------------------------------

    def _write_full_stripe(self, stripe: int, payload: bytes) -> None:
        code = self.code
        buf = code.alloc_stripe()
        words = np.frombuffer(payload, dtype=np.uint8)
        for col in range(code.k):
            start = col * code.strip_bytes
            strip = words[start : start + code.strip_bytes]
            buf[col] = strip.view(WORD_DTYPE).reshape(code.rows, -1)
        code.encode(buf)
        rec = self.journal.log(
            stripe, {col: buf[col] for col in range(code.n_cols)}
        )
        self.write_stripe(stripe, buf)
        self.journal.retire(rec)
        self.stats.full_stripe_writes += 1
        self.stats.parity_strip_writes += 2

    def _write_small(self, offset: int, payload: bytes) -> None:
        code = self.code
        pieces = self.layout.byte_range_elements(offset, len(payload))
        pos = 0
        for addr, lo, hi in pieces:
            stripe = addr.stripe
            buf = self.read_stripe(stripe)
            old = buf[addr.column, addr.row].view(np.uint8).copy()
            old[lo:hi] = np.frombuffer(payload[pos : pos + (hi - lo)], dtype=np.uint8)
            pos += hi - lo
            code.update(buf, addr.column, addr.row, old.view(WORD_DTYPE))
            touched = [addr.column, code.p_col, code.q_col]
            rec = self.journal.log(stripe, {c: buf[c] for c in touched})
            self.write_stripe(stripe, buf, columns=touched)
            self.journal.retire(rec)
            self.stats.small_writes += 1
            self.stats.parity_strip_writes += 2

    # -- recovery ------------------------------------------------------------------

    def recover(self) -> int:
        """Post-crash recovery: replay every unretired intent record.

        Returns the number of records replayed.  Idempotent -- the
        records hold full strip images, so replaying twice is harmless.
        """
        self._crash_point = None
        replayed = 0
        for rec in self.journal.pending():
            buf = self.code.alloc_stripe()
            for col, data in rec.strips.items():
                buf[col] = data
            self.write_stripe(rec.stripe, buf, columns=list(rec.strips))
            self.journal.retire(rec)
            replayed += 1
        return replayed
