"""The strip node: an asyncio TCP server storing one column's strips.

A :class:`StripNode` is one failure domain of the distributed array --
it owns the strips of exactly one logical column, backed by a
:class:`~repro.array.disk.SimulatedDisk` so the whole local fault
vocabulary (whole-disk failure, latent sector errors, silent
corruption) carries over unchanged.  On top of that sits the *network*
fault vocabulary of :class:`~repro.array.faults.NetworkFaultPlan`:
service latency, dropped connections mid-frame, corrupted frames,
transient I/O errors -- each installable in-process (tests) or over
the wire via the ``fault`` verb.

The node is deliberately dumb: it has no idea which code the cluster
runs or where its siblings are.  All striping, decoding and rebuild
intelligence lives in the client (:mod:`repro.cluster.client`), which
is what lets a degraded array keep serving while any two nodes
misbehave arbitrarily.
"""

from __future__ import annotations

import asyncio
import contextlib
import zlib

import numpy as np

from repro.analysis.concurrency import sanitizer
from repro.array.disk import DiskError, DiskFailedError, LatentSectorError, SimulatedDisk
from repro.array.faults import NetworkFaultPlan
from repro.cluster.protocol import ProtocolError, frame_parts, read_frame
from repro.obs.metrics import MetricsRegistry, to_prometheus
from repro.obs.tracing import Tracer
from repro.sim.clock import Clock, RealClock
from repro.sim.transport import AsyncioTransport, Transport
from repro.utils.words import WORD_DTYPE

__all__ = ["NodeCrashPlan", "NodeCrashed", "StripNode"]

#: Verbs the fault plan applies to.  Operator verbs (``stats``,
#: ``fault``, ``shutdown``, ``metrics``) and ``membership`` always get
#: through, so a sick node stays diagnosable and repairable.
_DATA_VERBS = frozenset({"get", "put", "xor", "ping", "scrub-read", "release"})


class NodeCrashed(Exception):
    """Internal signal: a :class:`NodeCrashPlan` trigger fired.

    The dispatch loop translates it into a crash: the connection is
    dropped without a reply and the node stops serving, while all
    durable state (disk contents, checksum sidecars, ``xor`` write
    tokens) survives in the object -- calling ``start()`` again models
    the machine rebooting.
    """


class NodeCrashPlan:
    """Deterministic node-side crash triggers for protocol boundaries.

    Each *point* names a position inside a verb handler (e.g.
    ``xor-before-apply``).  Arming a point with ``after=n`` makes the
    ``n+1``-th passage through it raise :class:`NodeCrashed`, so tests
    can sweep every node-side crash position of a migration's
    ``release`` and a delta write's ``xor`` the way
    ``tests/array/test_journal.py`` sweeps the local journal's strip
    writes.
    """

    #: every point the release and delta verbs pass through, in
    #: protocol order
    POINTS = (
        "release-before-drop",
        "release-before-reply",
        "xor-before-apply",
        "xor-before-reply",
    )

    def __init__(self) -> None:
        self._armed: dict[str, int] = {}

    def arm(self, point: str, *, after: int = 0) -> None:
        if point not in self.POINTS:
            raise ValueError(f"unknown crash point {point!r}")
        self._armed[point] = int(after)

    def fires(self, point: str) -> bool:
        """Whether the armed trigger at ``point`` fires on this passage."""
        if point not in self._armed:
            return False
        if self._armed[point] == 0:
            del self._armed[point]
            return True
        self._armed[point] -= 1
        return False


class StripNode:
    """Asyncio TCP server for one column of strips.

    ``start()`` binds (port 0 picks an ephemeral port; the bound
    address is then available as :attr:`address`) and serves until
    ``stop()`` is called or a ``shutdown`` frame arrives.
    """

    def __init__(
        self,
        column: int,
        n_strips: int,
        strip_words: int,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        transport: Transport | None = None,
        clock: Clock | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.column = int(column)
        self.disk = SimulatedDisk(column, n_strips, strip_words)
        self.faults = NetworkFaultPlan()
        self.crashes = NodeCrashPlan()
        #: per-strip CRC-32 sidecars, refreshed on every applied write
        self.checksums: dict[int, int] = {}
        #: per strip, the write token of its latest applied ``xor`` delta
        self.xor_tokens: dict[int, str] = {}
        #: last membership snapshot installed via the ``membership``
        #: verb (nodes gossip/serve the table but never interpret it --
        #: routing stays the client's job)
        self.membership_header: dict | None = None
        self.metrics = MetricsRegistry()
        self.transport = transport if transport is not None else AsyncioTransport()
        self.clock = clock if clock is not None else RealClock()
        #: optional span recorder (deterministic under the sim clock).
        self.tracer = tracer
        self._host = host
        self._port = port
        self._server = None
        self._stopped = asyncio.Event()
        #: the accepted connections still open: writer -> (serving task,
        #: reader)
        self._connections: dict = {}

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (valid after ``start()``)."""
        if self._server is None:
            raise RuntimeError("node is not started")
        return self._server.address

    @property
    def running(self) -> bool:
        return self._server is not None

    async def start(self) -> tuple[str, int]:
        if self._server is not None:
            raise RuntimeError("node already started")
        self._stopped.clear()
        self._server = await self.transport.serve(
            self._handle_connection, self._host, self._port
        )
        return self.address

    async def stop(self) -> None:
        """Stop serving: close the listener and every open connection.

        Clients keep idle connections open between requests, and a
        stopped node answers none of them; requests in flight are cut
        off, as by a power loss.  Hanging up first also lets
        ``Server.wait_closed()`` return, which on Python >= 3.12.1
        waits for the open connections.
        """
        server, self._server = self._server, None
        if server is not None:
            server.close()
            current = asyncio.current_task()
            serving = [
                t for t, _ in self._connections.values() if t is not current
            ]
            for writer in list(self._connections):
                writer.close()
            for task in serving:
                task.cancel()
            await server.wait_closed()
            await asyncio.gather(*serving, return_exceptions=True)
        self._stopped.set()

    async def serve_until_shutdown(self) -> None:
        """Block until ``stop()`` or a ``shutdown`` frame."""
        if self._server is None:
            await self.start()
        await self._stopped.wait()
        if self._server is not None:
            await self.stop()

    # -- request handling --------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve frames off one connection until the peer leaves, a
        frame is garbled, or the node stops."""
        self._connections[writer] = (asyncio.current_task(), reader)
        try:
            while self.running:
                try:
                    header, payload = await read_frame(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return  # peer went away
                except ProtocolError:
                    self.metrics.counter("bad_frames").inc()
                    return  # unrecoverable framing state: drop the peer
                if not await self._dispatch(header, payload, writer):
                    return
        except asyncio.CancelledError:
            # stop() cut the connection off and awaits this task: end
            # quietly (Python 3.11's stream callback logs a cancelled
            # handler as an error).  Any other cancellation propagates.
            if self.running:
                raise
        finally:
            del self._connections[writer]
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch(self, header: dict, payload: memoryview, writer) -> bool:
        """Serve one request; returns False to close the connection."""
        verb = header.get("verb", "?")
        if self.tracer is None:
            return await self._dispatch_inner(verb, header, payload, writer)
        with self.tracer.span(f"node.{verb}", column=self.column,
                              bytes=len(payload)):
            return await self._dispatch_inner(verb, header, payload, writer)

    async def _dispatch_inner(
        self, verb: str, header: dict, payload: memoryview, writer
    ) -> bool:
        self.metrics.counter(f"requests_{verb}").inc()
        self.metrics.counter("bytes_in").inc(len(payload))

        if verb in _DATA_VERBS:
            # Capture the delay first: spending the last slow_requests
            # budget clears plan.latency (the spell is over).
            delay = self.faults.latency
            if delay and self.faults.latency_applies():
                await self.clock.sleep(delay)
                if self._hung_up(writer):
                    # The client timed out meanwhile and may have retried
                    # and moved on: served now, this request would land
                    # after whatever the client wrote next.
                    self.metrics.counter("abandoned_requests").inc()
                    return False
            if self.faults.consume("fail_requests"):
                self.metrics.counter("injected_io_errors").inc()
                await self._reply(writer, {"status": "err", "error": "io-error",
                                           "detail": "injected transient fault"})
                return True

        try:
            reply_header, reply_payload = self._serve(verb, header, payload)
        except NodeCrashed:
            # Power loss mid-verb: no reply, connection dropped, node
            # down until restarted.  Durable state survives in `self`.
            self.metrics.counter("injected_crashes").inc()
            await self.stop()
            return False
        except LatentSectorError as exc:
            reply_header, reply_payload = (
                {"status": "err", "error": "latent", "detail": str(exc)}, b"")
        except DiskFailedError as exc:
            reply_header, reply_payload = (
                {"status": "err", "error": "disk-failed", "detail": str(exc)}, b"")
        except (DiskError, ValueError, IndexError, KeyError, TypeError) as exc:
            reply_header, reply_payload = (
                {"status": "err", "error": "bad-request", "detail": str(exc)}, b"")
        if reply_header.get("status") == "err":
            self.metrics.counter("errors").inc()

        planned = verb in _DATA_VERBS  # the fault plan applies
        intact = await self._reply(
            writer, reply_header, reply_payload, label=f"node.{verb}.reply",
            corrupt=planned and self.faults.consume("corrupt_frames"),
            drop=planned and self.faults.consume("drop_mid_frame"),
        )
        return intact and verb != "shutdown"

    def _hung_up(self, writer) -> bool:
        """Whether the client of ``writer``'s connection has closed it."""
        entry = self._connections.get(writer)
        return entry is not None and entry[1].at_eof()

    async def _reply(
        self, writer, header: dict, payload=b"", *, label: str = "node._reply",
        corrupt: bool = False, drop: bool = False,
    ) -> bool:
        """Send one reply frame as one ``bytes`` in one ``write``.

        The payload (a ``get``'s strips are read-only views of the
        disk's storage) is joined into the frame before the first
        ``await``, so a write that lands while the frame drains never
        shows in it.  ``corrupt`` flips a header/payload bit (the CRC
        goes stale) and ``drop`` sends only the first half of the
        frame; returns False when the connection must close.
        """
        token = sanitizer.guard(payload, label)
        frame = b"".join(frame_parts(header, payload))
        if corrupt:
            self.metrics.counter("injected_corruptions").inc()
            frame = bytearray(frame)
            frame[len(frame) // 2] ^= 0xFF
        if drop:
            self.metrics.counter("injected_drops").inc()
            frame = frame[: len(frame) // 2]
        else:
            self.metrics.counter("bytes_out").inc(len(frame))
        writer.write(frame)
        with contextlib.suppress(ConnectionError):
            await writer.drain()
        sanitizer.check(token)
        return not drop

    # -- verb implementations ----------------------------------------------

    def _serve(
        self, verb: str, header: dict, payload: memoryview
    ) -> tuple[dict, bytes | list]:
        if "crcs" in header and verb != "put":
            # The frame's CRC left out the payload, whose strips only a
            # put checks against the listed CRCs.
            return {"status": "err", "error": "bad-request",
                    "detail": f"only a put lists crcs, not {verb!r}"}, b""
        if verb == "ping":
            return {"status": "ok", "column": self.column}, b""
        if verb == "put":
            return self._serve_put(header, payload), b""
        if verb == "get":
            return self._serve_get(header)
        if verb == "xor":
            return self._serve_xor(header, payload), b""
        if verb == "scrub-read":
            return self._serve_scrub_read(header), b""
        if verb == "release":
            return self._serve_release(header), b""
        if verb == "membership":
            return self._serve_membership(header), b""
        if verb == "stats":
            return {
                "status": "ok",
                "column": self.column,
                # strips this node actually holds (has a CRC sidecar
                # for): the rebalancer's drain-progress denominator
                "held": len(self.checksums),
                "stats": self.metrics.snapshot(),
                "disk": {
                    "reads": self.disk.stats.reads,
                    "writes": self.disk.stats.writes,
                    "bytes_read": self.disk.stats.bytes_read,
                    "bytes_written": self.disk.stats.bytes_written,
                    "failed": self.disk.failed,
                    "n_strips": self.disk.n_strips,
                },
            }, b""
        if verb == "metrics":
            return (
                {"status": "ok", "column": self.column,
                 "content_type": "text/plain; version=0.0.4"},
                self._prometheus_body().encode(),
            )
        if verb == "fault":
            return self._serve_fault(header), b""
        if verb == "shutdown":
            self._stopped.set()
            return {"status": "ok", "column": self.column}, b""
        return {"status": "err", "error": "bad-verb", "detail": f"unknown verb {verb!r}"}, b""

    def _prometheus_body(self) -> str:
        """Prometheus text exposition of this node's registry + disk.

        Disk access totals render as counters, disk state as gauges;
        every sample carries a ``column`` label so the per-node
        endpoints stay aggregatable across the cluster.
        """
        snap = self.metrics.snapshot()
        snap["counters"] = {
            **snap["counters"],
            "disk_reads": self.disk.stats.reads,
            "disk_writes": self.disk.stats.writes,
            "disk_bytes_read": self.disk.stats.bytes_read,
            "disk_bytes_written": self.disk.stats.bytes_written,
        }
        snap["gauges"] = {
            **snap.get("gauges", {}),
            "disk_failed": float(self.disk.failed),
            "disk_n_strips": float(self.disk.n_strips),
        }
        return to_prometheus(snap, labels={"column": str(self.column)})

    # -- strip I/O verbs -----------------------------------------------------

    def _stripes(self, header: dict) -> list[int]:
        """The strips a ``get``/``put`` names: ``stripes``, or a lone
        ``stripe`` as the one-strip case; all checked before any I/O."""
        stripes = header["stripes"] if "stripes" in header else [header["stripe"]]
        stripes = [int(s) for s in stripes]
        if not stripes:
            raise ValueError("no stripes named")
        for stripe in stripes:
            if not 0 <= stripe < self.disk.n_strips:
                raise IndexError(
                    f"stripe {stripe} out of range [0, {self.disk.n_strips})"
                )
        return stripes

    def _serve_put(self, header: dict, payload: memoryview) -> dict:
        """Store the payload's strips, one after another.

        Each strip is checked against the CRC-32 the request lists for
        it (``crcs``), which then becomes its sidecar: one pass over the
        bytes.  A strip that fails its CRC was damaged on the wire, so
        the request fails whole, before any strip is written, as a
        ``bad-crc`` error the client retries.
        """
        stripes = self._stripes(header)
        size = self.disk.strip_words * 8
        if len(payload) != len(stripes) * size:
            raise ValueError(
                f"put payload of {len(payload)} B != {len(stripes)} strips "
                f"of {size} B"
            )
        crcs = [int(crc) for crc in header.get("crcs", ())]
        if len(crcs) != len(stripes):
            raise ValueError(f"put lists {len(crcs)} CRCs for {len(stripes)} strips")
        view = memoryview(payload)
        strips = [view[i * size : (i + 1) * size] for i in range(len(stripes))]
        bad = [s for s, strip, crc in zip(stripes, strips, crcs) if zlib.crc32(strip) != crc]
        if bad:
            self.metrics.counter("put_crc_mismatches").inc(len(bad))
            return {"status": "err", "error": "bad-crc",
                    "detail": f"strips {bad} fail their CRC-32"}
        for stripe, strip, crc in zip(stripes, strips, crcs):
            self.disk.write_strip(stripe, np.frombuffer(strip, dtype=WORD_DTYPE))
            self.checksums[stripe] = crc
        return {"status": "ok"}

    def _read_strips(self, header: dict) -> tuple[list, list[int]]:
        """The strips a ``get`` or ``scrub-read`` names, in request
        order, as ``(stripes, words)`` runs: each maximal run of
        consecutive stripes in the request is one disk read, its words
        a read-only view of the disk's storage, strip after strip.

        Strips behind a latent sector are left out and returned as
        unreadable: a run that holds one is read again strip by strip,
        each readable strip a run of its own.  A failed disk, or no
        readable strip at all, fails the whole request."""
        stripes = self._stripes(header)
        runs, unreadable = [], []
        error: LatentSectorError | None = None
        start = 0
        for end in range(1, len(stripes) + 1):
            if end < len(stripes) and stripes[end] == stripes[end - 1] + 1:
                continue
            run, start = stripes[start:end], end
            try:
                runs.append((run, self.disk.read_view(run[0], len(run))))
            except LatentSectorError:
                for stripe in run:
                    try:
                        runs.append(([stripe], self.disk.read_view(stripe)))
                    except LatentSectorError as exc:
                        unreadable.append(stripe)
                        error = exc
        if error is not None and not runs:
            raise error
        return runs, unreadable

    def _serve_get(self, header: dict) -> tuple[dict, list]:
        """The named strips in request order, each with its CRC sidecar
        in ``crcs``, leaving out (and listing as ``unreadable``) those
        behind a latent sector.  No strip is hashed: the client checks
        each against its sidecar, so rot at rest shows there.  A strip
        without a sidecar (never written through this node) adopts its
        CRC, as :meth:`_serve_scrub_read` does.  The payload is one view
        of the disk's storage per run of consecutive stripes
        (:meth:`_read_strips`), which :meth:`_reply` joins into the
        frame."""
        runs, unreadable = self._read_strips(header)
        size = self.disk.strip_words
        crcs = []
        for run, words in runs:
            for i, stripe in enumerate(run):
                crc = self.checksums.get(stripe)
                if crc is None:
                    crc = self.checksums[stripe] = zlib.crc32(
                        words[i * size : (i + 1) * size]
                    )
                crcs.append(crc)
        reply: dict = {"status": "ok", "crcs": crcs}
        if unreadable:
            reply["unreadable"] = unreadable
        return reply, [words for _, words in runs]

    def _serve_xor(self, header: dict, payload: memoryview) -> dict:
        """XOR the payload's rows into the named strips: a delta write.

        ``rows`` lists, per strip, the rows of ``row_bytes`` bytes the
        payload carries for it, strip after strip.  An XOR is not
        idempotent, so each strip keeps the write ``token`` of its last
        delta and answers a retry of that delta without touching the
        strip.  The last one is enough: the client holds the stripe's
        lock across every retry and hedge of one write, and a request
        whose client hung up is dropped (:meth:`_dispatch_inner`).

        Every strip is read, and checked against its CRC sidecar,
        before any is changed: a latent sector, a failed disk or a
        strip that no longer matches its sidecar fails the request
        whole.  XORing into silent rot and re-sealing the sidecar would
        hide the rot from the scrub's sidecar probe; failed instead,
        the client lists the column stale and the scrub rewrites it.
        Each changed strip's sidecar is then refreshed.
        """
        stripes = self._stripes(header)
        rows = [[int(r) for r in strip_rows] for strip_rows in header["rows"]]
        row_bytes = int(header["row_bytes"])
        token = str(header["token"])
        size = self.disk.strip_words * 8
        if len(set(stripes)) != len(stripes) or len(rows) != len(stripes):
            raise ValueError(f"xor needs one row list per distinct strip, got {rows}")
        if row_bytes <= 0 or size % row_bytes:
            raise ValueError(f"row_bytes {row_bytes} does not divide a {size} B strip")
        n_rows = size // row_bytes
        for strip_rows in rows:
            if len(set(strip_rows)) != len(strip_rows) or not all(
                0 <= r < n_rows for r in strip_rows
            ):
                raise ValueError(f"rows {strip_rows} are not distinct rows of {n_rows}")
        if len(payload) != sum(map(len, rows)) * row_bytes:
            raise ValueError(
                f"xor payload of {len(payload)} B != {sum(map(len, rows))} rows "
                f"of {row_bytes} B"
            )
        delta = np.frombuffer(payload, dtype=np.uint8)
        fresh, offset = [], 0
        for stripe, strip_rows in zip(stripes, rows):
            if self.xor_tokens.get(stripe) != token:
                strip = self.disk.read_strip(stripe)
                stored = self.checksums.get(stripe)
                if stored is not None and stored != zlib.crc32(strip.data):
                    self.metrics.counter("xor_crc_mismatches").inc()
                    raise LatentSectorError(
                        f"column {self.column} strip {stripe} does not match "
                        "its CRC sidecar"
                    )
                fresh.append((stripe, strip, strip_rows, offset))
            offset += len(strip_rows) * row_bytes
        if self.crashes.fires("xor-before-apply"):
            raise NodeCrashed(f"xor({token}): crashed before applying")
        for stripe, strip, strip_rows, offset in fresh:
            cells = strip.view(np.uint8)
            for row in strip_rows:
                cells[row * row_bytes : (row + 1) * row_bytes] ^= delta[
                    offset : offset + row_bytes
                ]
                offset += row_bytes
            self.disk.write_strip(stripe, strip)
            self.checksums[stripe] = zlib.crc32(strip.data)
            self.xor_tokens[stripe] = token
        self.metrics.counter("xor_strips_applied").inc(len(fresh))
        self.metrics.counter("xor_duplicates").inc(len(stripes) - len(fresh))
        if self.crashes.fires("xor-before-reply"):
            raise NodeCrashed(f"xor({token}): crashed before replying")
        return {"status": "ok", "applied": len(fresh)}

    # -- scrub verb ----------------------------------------------------------

    def _serve_scrub_read(self, header: dict) -> dict:
        """Checksum probe: compare each named strip to its CRC sidecar.

        Lets the scrubber detect node-local bit rot without shipping
        the strips.  Per readable strip, in request order, the reply
        lists its sidecar (``crc_stored``) and whether its contents
        still match it (``match``); strips behind a latent sector are
        listed as ``unreadable``, as a ``get`` lists them.  Strips
        written before sidecars existed (or via direct disk access in
        tests) get a lazily initialised sidecar on first probe --
        pre-existing damage is indistinguishable from original content
        at that point, exactly like real sidecar adoption.
        """
        runs, unreadable = self._read_strips(header)
        size = self.disk.strip_words
        stored, match = [], []
        for run, words in runs:
            for i, stripe in enumerate(run):
                actual = zlib.crc32(words[i * size : (i + 1) * size])
                crc = self.checksums.setdefault(stripe, actual)
                if crc != actual:
                    self.metrics.counter("scrub_crc_mismatches").inc()
                stored.append(crc)
                match.append(crc == actual)
        reply: dict = {"status": "ok", "crc_stored": stored, "match": match}
        if unreadable:
            reply["unreadable"] = unreadable
        return reply

    # -- migration & membership verbs ----------------------------------------

    def _serve_release(self, header: dict) -> dict:
        """Drop a migrated-away strip: zero it and retire its sidecar.

        The last step of a migration, issued only after the new copy is
        routed and read back elsewhere.  ``crc`` (when present) is
        the coordinator's fencing token -- the sidecar it verified; if
        the strip changed since (a foreground write raced the
        migration), the release is refused and the coordinator must
        re-migrate the fresh bytes.  Releasing an absent strip succeeds
        idempotently, so a coordinator that lost the reply can resend.
        """
        stripe = int(header["stripe"])
        if self.crashes.fires("release-before-drop"):
            raise NodeCrashed(f"release({stripe}): crashed before dropping strip")
        stored = self.checksums.get(stripe)
        if stored is None:
            return {"status": "ok", "stripe": stripe, "released": True,
                    "reason": "absent"}
        expected = header.get("crc")
        if expected is not None and int(expected) != stored:
            self.metrics.counter("release_fenced").inc()
            return {"status": "ok", "stripe": stripe, "released": False,
                    "reason": "crc-mismatch"}
        self.disk.write_strip(
            stripe, np.zeros(self.disk.strip_words, dtype=WORD_DTYPE)
        )
        del self.checksums[stripe]
        self.xor_tokens.pop(stripe, None)
        self.metrics.counter("strips_released").inc()
        if self.crashes.fires("release-before-reply"):
            raise NodeCrashed(f"release({stripe}): crashed before replying")
        return {"status": "ok", "stripe": stripe, "released": True}

    def _serve_membership(self, header: dict) -> dict:
        """Store/serve/mutate the cluster membership snapshot.

        The node hosts the table as dumb durable state (the CLI's
        join/drain/status talk to any one node); interpretation --
        placement, routing -- stays client-side.  Mutations go through
        :class:`~repro.cluster.membership.MembershipTable` so epoch
        bumps and state-transition rules hold no matter who asks.
        """
        from repro.cluster.membership import MembershipTable

        mutating = [
            op for op in ("join", "drain", "remove", "mark_live", "mark_dead")
            if op in header
        ]
        if "set" in header:
            self.membership_header = dict(header["set"])
        elif mutating:
            table = MembershipTable.from_header(self.membership_header or {})
            if "join" in header:
                info = header["join"]
                table.join(
                    str(info["id"]),
                    (str(info["host"]), int(info["port"])),
                    live=bool(info.get("live")),
                )
            if "drain" in header:
                table.drain(str(header["drain"]))
            if "remove" in header:
                table.remove(str(header["remove"]))
            if "mark_live" in header:
                table.mark_live(str(header["mark_live"]))
            if "mark_dead" in header:
                table.mark_dead(str(header["mark_dead"]))
            self.membership_header = table.to_header()
        return {
            "status": "ok",
            "column": self.column,
            "membership": self.membership_header or {"epoch": 0, "nodes": []},
        }

    def _serve_fault(self, header: dict) -> dict:
        """Install network faults and/or trigger disk faults remotely."""
        if "plan" in header:
            self.faults = NetworkFaultPlan.from_header(header["plan"])
        if header.get("disk_fail"):
            self.disk.fail()
        for strip in header.get("latent", ()):
            self.disk.mark_latent_error(int(strip))
        if header.get("replace"):
            self.disk.replace()
            self.faults = NetworkFaultPlan()
        return {"status": "ok", "faults": self.faults.to_header()}

    def __repr__(self) -> str:
        state = f"on {self.address}" if self.running else "stopped"
        return f"StripNode(column={self.column}, {state}, {self.disk!r})"
