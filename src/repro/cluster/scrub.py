"""Distributed scrub & repair: find and fix silent corruption in place.

The cluster-side sibling of :class:`repro.array.scrub.Scrubber`, built
around the paper's single-column locator
(:func:`repro.core.error_correction.locate_and_correct`): stream
stripes through the cluster in bounded windows, verify parity, locate
the corrupted column on a mismatch, and push the corrected strip back
to its node.

A pass walks the array in windows of ``window`` stripes on the
array's batched data path, one RPC per column and holder a round:

* **Dirty-first** -- stripes listed stale
  (:attr:`ClusterArray.dirty_stripes`) fill the first windows: their
  stale columns are known erasures, decoded and put back the moment
  their node is back.
* **Checksum fast path** -- a window's other stripes are probed by one
  ``scrub-read`` per column and holder: each node checks every strip
  against its CRC-32 sidecar locally, no strip on the wire.  A stripe
  every column vouches for settles there.
* **Suspects** -- the stripes a probe flagged (a mismatch, an
  unreadable strip, no answer), and every stripe listed stale when its
  window comes up, are fetched by one ``get`` per column and holder
  that skips their stale columns, and decoded or located under their
  stripe locks, held to the last repair ``put``.  ``deep`` mode makes
  every stripe a suspect -- sidecars cannot see a *stale but
  internally consistent* strip, so a periodic deep pass is the
  backstop.

Every decoded or located strip goes back through the array's
write-back (:meth:`ClusterArray._write_back`, shared with the
rebuild); a column whose node will not take it keeps its state (a
stale one stays listed) and its stripe is deferred.

All I/O rides the array's Clock/Transport/Tracer seams, so scrub
passes replay deterministically under :mod:`repro.sim`; progress is
visible in ``scrub_*`` metrics and ``scrub.pass`` spans.  When the
scrubber is idle (between passes, or never started) it issues no RPCs
at all.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.cluster.client import ClusterArray, ClusterError, _by_column
from repro.codes.liberation import LiberationCode
from repro.core.error_correction import ScanStatus, locate_and_correct
from repro.parallel import iter_batches

__all__ = ["ClusterScrubReport", "ClusterScrubber"]


@dataclass
class ClusterScrubReport:
    """Aggregate outcome of one distributed scrub pass."""

    stripes_scanned: int = 0
    stripes_clean: int = 0
    stripes_corrected: int = 0
    stripes_uncorrectable: int = 0
    #: parity mismatch found, but the code has no locator (or repair is
    #: off): detected, not correctable by the single-column procedure
    stripes_detected_only: int = 0
    #: stripes whose damaged columns could not be reached for repair
    stripes_deferred: int = 0
    #: stripes settled by the checksum fast path (no strip shipped)
    fast_path_hits: int = 0
    corrected: list[tuple[int, int]] = field(default_factory=list)  # (stripe, column)
    uncorrectable: list[int] = field(default_factory=list)
    detected_only: list[int] = field(default_factory=list)
    deferred: list[int] = field(default_factory=list)
    crc_mismatches: list[tuple[int, int]] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        return (
            self.stripes_uncorrectable == 0
            and self.stripes_detected_only == 0
            and self.stripes_deferred == 0
        )

    def merge(self, other: "ClusterScrubReport") -> None:
        for name in (
            "stripes_scanned", "stripes_clean", "stripes_corrected",
            "stripes_uncorrectable", "stripes_detected_only",
            "stripes_deferred", "fast_path_hits",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name in ("corrected", "uncorrectable", "detected_only",
                     "deferred", "crc_mismatches"):
            getattr(self, name).extend(getattr(other, name))


class ClusterScrubber:
    """Scrubs a :class:`ClusterArray` in place, window by window.

    ``window`` is the number of stripes one probe round, one fetch and
    one repair round carry; ``interval`` is the sleep between
    background passes when driven by :meth:`start`.  Non-Liberation
    codes fall back to detect-only, the same surfaced fallback as the
    local scrubber.
    """

    def __init__(
        self, array: ClusterArray, *, window: int = 8, interval: float = 30.0
    ) -> None:
        self.array = array
        self.window = int(window)
        self.interval = float(interval)
        self._can_locate = isinstance(array.code, LiberationCode)
        self._task: asyncio.Task | None = None

    # -- one window ----------------------------------------------------------

    async def _probe(self, stripes: list[int]) -> dict[int, list[int]]:
        """Checksum probe of ``stripes``, one ``scrub-read`` per column
        and holder; returns each stripe's columns whose strip failed its
        sidecar, was unreadable or did not answer."""
        if not stripes:
            return {}
        array = self.array
        done = await array._fan_out(
            "scrub-read", [(col, stripes) for col in range(array.code.n_cols)]
        )
        bad: dict[int, list[int]] = {}
        for col, batch, outcome in done:
            failed = batch
            if not isinstance(outcome, ClusterError):
                reply, _ = outcome
                unreadable = set(reply.get("unreadable", ()))
                readable = [s for s in batch if s not in unreadable]
                match = reply.get("match")
                if isinstance(match, list) and len(match) == len(readable):
                    failed = [s for s in batch if s in unreadable] + [
                        s for s, ok in zip(readable, match) if not ok
                    ]
            for stripe in failed:
                bad.setdefault(stripe, []).append(col)
        return bad

    async def _scrub_window(
        self, window: list[int], repair: bool, deep: bool
    ) -> ClusterScrubReport:
        """Probe ``window`` and verify its suspects.

        A suspect is a stripe whose probe found a strip that failed its
        sidecar, was unreadable or did not answer, or a stripe listed in
        :attr:`~ClusterArray.dirty_stripes` when its window comes up
        (not probed: a stale strip matches its own sidecar).  A ``deep``
        window skips the probe and verifies every stripe.
        """
        array = self.array
        report = ClusterScrubReport()
        suspects = window
        if not deep:
            probed = [s for s in window if s not in array.dirty_stripes]
            bad = await self._probe(probed)
            for stripe in probed:
                for col in bad.get(stripe, ()):
                    report.crc_mismatches.append((stripe, col))
                    array.metrics.counter("scrub_crc_mismatches_seen").inc()
            settled = [
                s for s in probed if s not in bad and s not in array.dirty_stripes
            ]
            report.stripes_scanned += len(settled)
            report.stripes_clean += len(settled)
            report.fast_path_hits += len(settled)
            if settled:
                array.metrics.counter("scrub_fast_path_hits").inc(len(settled))
            suspects = [s for s in window if s not in settled]
        if suspects:
            report.merge(await self._verify(suspects, repair))
        return report

    async def scrub_stripe(
        self, stripe: int, *, repair: bool = True
    ) -> ClusterScrubReport:
        """Full verify (and repair) of one stripe; returns a 1-stripe report."""
        return await self._verify([stripe], repair)

    async def _verify(self, stripes: list[int], repair: bool) -> ClusterScrubReport:
        """Fetch, verify and repair ``stripes`` as one batch.

        Holds the stripes' locks from the fetch to the last repair put,
        so a write landing meanwhile cannot be overwritten by a repair
        decoded from the stripe's older image.
        """
        array, code = self.array, self.array.code
        report = ClusterScrubReport(stripes_scanned=len(stripes))
        bufs = {s: code.alloc_stripe() for s in stripes}
        repairs: dict[int, list[int]] = {}
        async with array.stripe_locks(stripes):
            # Known-stale columns are erasures, never fetched: the dirty
            # list turns an unknown-error problem into a known-erasure
            # one, so even *two* stale columns decode exactly where the
            # locator could repair at most one.
            stale = {s: set(array.dirty_stripes.get(s, ())) for s in stripes}
            lost = await array._gather(
                _by_column({
                    s: [c for c in range(code.n_cols) if c not in stale[s]]
                    for s in stripes
                }),
                bufs,
            )
            for stripe in stripes:
                buf = bufs[stripe]
                erased = sorted(stale[stripe] | set(lost[stripe]))
                if len(erased) > 2 or (erased and not repair):
                    report.deferred.append(stripe)
                elif erased:
                    # Erasure-type damage: decode the lost strips and put
                    # them back (latent sectors heal on rewrite; a down
                    # node stays deferred).
                    for col in erased:
                        buf[col] = 0
                    code.decode(buf, erased)
                    array.metrics.counter("decodes").inc()
                    repairs[stripe] = erased
                elif code.verify(buf):
                    report.stripes_clean += 1
                elif not (self._can_locate and repair):
                    report.stripes_detected_only += 1
                    report.detected_only.append(stripe)
                    array.metrics.counter("scrub_detected_only").inc()
                else:
                    result = locate_and_correct(code.geometry, buf)
                    if result.status is ScanStatus.CORRECTED:
                        repairs[stripe] = [result.column]
                    else:
                        report.stripes_uncorrectable += 1
                        report.uncorrectable.append(stripe)
                        array.metrics.counter("scrub_uncorrectable").inc()
            missed = await array._write_back(repairs, bufs)
        for stripe, cols in repairs.items():
            report.corrected += [(stripe, c) for c in cols if c not in missed.get(stripe, ())]
        report.deferred += [s for s in repairs if s in missed]
        report.stripes_corrected = len(report.corrected)
        report.stripes_deferred = len(report.deferred)
        if report.corrected:
            array.metrics.counter("scrub_stripes_corrected").inc(len(report.corrected))
        return report

    # -- one pass ------------------------------------------------------------

    async def scrub(self, *, repair: bool = True, deep: bool = False) -> ClusterScrubReport:
        """One pass over the whole array: dirty stripes first, then the rest.

        Each window of ``window`` stripes costs one ``scrub-read`` per
        column and holder; only its suspects are fetched and verified.
        ``deep`` skips the probe and fetches and verifies every stripe.
        """
        array = self.array
        report = ClusterScrubReport()
        tracer = array.tracer

        async def run_pass() -> None:
            dirty = sorted(array.dirty_stripes)
            listed = set(dirty)
            order = dirty + [s for s in range(array.n_stripes) if s not in listed]
            for start, stop in iter_batches(len(order), self.window):
                report.merge(await self._scrub_window(order[start:stop], repair, deep))
            array.metrics.counter("scrub_passes").inc()
            array.metrics.counter("scrub_stripes_scanned").inc(
                report.stripes_scanned
            )

        if tracer is None:
            await run_pass()
        else:
            with tracer.span("scrub.pass", stripes=array.n_stripes,
                             deep=deep) as span:
                await run_pass()
                span.set("corrected", report.stripes_corrected)
                span.set("uncorrectable", report.stripes_uncorrectable)
                span.set("fast_path_hits", report.fast_path_hits)
        return report

    # -- background driving --------------------------------------------------

    def start(self, *, repair: bool = True, deep_every: int = 0) -> asyncio.Task:
        """Launch periodic passes as a background task.

        ``deep_every=n`` makes every ``n``-th pass a deep one (0 keeps
        all passes on the fast path).  Between passes the scrubber
        sleeps on the array's clock and issues **no** RPCs.
        """
        if self._task is not None and not self._task.done():
            raise RuntimeError("scrub loop already running")

        async def loop() -> None:
            passes = 0
            while True:
                deep = bool(deep_every) and passes % deep_every == deep_every - 1
                await self.scrub(repair=repair, deep=deep)
                passes += 1
                await self.array.clock.sleep(self.interval)

        self._task = asyncio.get_running_loop().create_task(loop())
        return self._task

    async def stop(self) -> None:
        """Cancel the background loop (no-op if never started)."""
        task, self._task = self._task, None
        if task is not None and not task.done():
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
