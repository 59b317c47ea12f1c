"""The object gateway: a keyed object API in front of :class:`ClusterArray`.

Production traffic speaks objects -- named blobs, read whole and
updated at arbitrary offsets -- while the cluster speaks stripes.
:class:`ObjectGateway` is the translation layer:

* **Layout.**  An in-memory directory maps each name to an
  :class:`~repro.gateway.layout.ObjectMeta` (size, CRC-32, extents);
  the :class:`~repro.gateway.layout.StripeAllocator` packs small
  objects together in shared stripes and spans large ones across
  whole stripes (full-stripe encode path for the bulk, packed tail).
* **Writes are shadowed.**  ``put`` over an existing name allocates the
  new extents *first*, writes them, and only then swaps the directory
  entry and frees the old extents -- a failed write leaves the old
  object intact and readable.
* **Small updates are delta writes.**  ``update`` rewrites only the
  byte range it touches; sub-stripe spans ride the cluster's delta
  write (the touched data strips plus an XOR into the touched parity
  rows).  Per-stripe asyncio locks serialise writers of a shared
  stripe, so two packed neighbours can be updated concurrently without
  lost updates.
* **One batch per object.**  An object's cache-missing stripes are
  read in one array call and its extents written in another, so each
  costs one RPC per column and node, not one per stripe; the stripe
  locks of a batch are taken in ascending order.
* **End-to-end integrity.**  Each object keeps the CRC-32 of its
  bytes, and a ``get`` that assembles other bytes raises
  :class:`IntegrityError`.  Neither direction hashes the object again:
  a ``put`` folds the CRC from the strip-aligned pieces the array
  hashed to list its strips' CRCs (so the nodes check each strip the
  layout built against the user's bytes, and a misplaced piece is
  refused there), and a ``get`` folds its check from the CRCs each
  strip was checked with where it landed (a decoded strip's is hashed
  once), extent by extent in the order it assembles them, hashing only
  an extent that covers part of a stripe.  So an extent mapped to the
  wrong stripe, or a bad decode, is caught here.  An update patches
  the CRC from the bytes it overwrote
  (:func:`~repro.utils.crc.crc32_patch`) instead of re-reading the
  object.
* **Backpressure.**  Every data op passes the
  :class:`~repro.gateway.admission.AdmissionController`; overload
  sheds with :class:`~repro.gateway.admission.Overloaded` rather than
  queueing without bound, and the underlying
  :class:`~repro.cluster.client.RetryPolicy` ``deadline`` caps how
  long an admitted request can hold its slot in retries.

Latency histograms (``gateway_<op>_latency_s``, queue wait included)
and tracer spans (``gateway.<op>``) land in the array's metrics
registry and tracer, so the observability stack covers the object
path with no extra wiring.
"""

from __future__ import annotations

import asyncio
import contextlib
import zlib
from dataclasses import dataclass

from repro.cluster.client import ClusterArray, acquire_all
from repro.gateway.admission import AdmissionController, Overloaded
from repro.gateway.cache import StripeCache
from repro.gateway.layout import Extent, NoSpaceError, ObjectMeta, StripeAllocator
from repro.utils.crc import crc32_combine, crc32_patch

__all__ = [
    "GatewayError",
    "ObjectNotFoundError",
    "IntegrityError",
    "ObjectStat",
    "ObjectGateway",
    "NoSpaceError",
    "Overloaded",
]


class GatewayError(Exception):
    """Base class for object-gateway failures."""


class ObjectNotFoundError(GatewayError, KeyError):
    """No object with that name exists."""


class IntegrityError(GatewayError):
    """Assembled object bytes fail their end-to-end CRC."""


@dataclass(frozen=True)
class ObjectStat:
    """Directory view of one object (what ``stat``/``list`` return)."""

    name: str
    size: int
    crc: int
    version: int
    n_extents: int
    stripes: tuple[int, ...]


class ObjectGateway:
    """Asyncio object store over a :class:`ClusterArray`."""

    def __init__(
        self,
        array: ClusterArray,
        *,
        cache_stripes: int = 16,
        max_inflight: int = 32,
        max_queue: int = 128,
        queue_timeout: float | None = None,
    ) -> None:
        self.array = array
        self.metrics = array.metrics
        self.tracer = array.tracer
        self.clock = array.clock
        self.stripe_bytes = array.stripe_data_bytes
        self.index: dict[str, ObjectMeta] = {}
        self.allocator = StripeAllocator(array.n_stripes, self.stripe_bytes)
        self.cache = StripeCache(cache_stripes, metrics=self.metrics)
        self.admission = AdmissionController(
            max_inflight,
            max_queue,
            queue_timeout=queue_timeout,
            clock=self.clock,
            metrics=self.metrics,
        )
        self._name_locks: dict[str, asyncio.Lock] = {}
        self._locks_by_stripe: dict[int, asyncio.Lock] = {}
        self._version = 0

    # -- locking ------------------------------------------------------------

    def _name_lock(self, name: str) -> asyncio.Lock:
        lock = self._name_locks.get(name)
        if lock is None:
            lock = self._name_locks[name] = asyncio.Lock()
        return lock

    def _stripe_lock(self, stripe: int) -> asyncio.Lock:
        lock = self._locks_by_stripe.get(stripe)
        if lock is None:
            lock = self._locks_by_stripe[stripe] = asyncio.Lock()
        return lock

    def _stripe_locks(self, stripes):
        """The locks of ``stripes``, held together and taken in ascending
        order -- the order of every batch, so two batches sharing
        stripes never deadlock."""
        return acquire_all(self._stripe_lock(s) for s in sorted(set(stripes)))

    @contextlib.asynccontextmanager
    async def _admitted(self, op: str):
        """Admission + latency histogram + span around one data op.

        The latency timer starts *before* admission, so queue wait is
        part of what the histograms (and the overload test's p99
        bound) see.  Shed requests never reach the timer's observe.
        """
        t0 = self.clock.time()
        async with self.admission.slot():
            if self.tracer is None:
                yield
            else:
                with self.tracer.span(f"gateway.{op}"):
                    yield
        self.metrics.histogram(f"gateway_{op}_latency_s").observe(
            self.clock.time() - t0
        )
        self.metrics.counter(f"gateway_{op}_ops").inc()

    # -- extent I/O ---------------------------------------------------------

    async def _read_extents(self, extents: list[Extent]) -> tuple[bytes, int]:
        """An object's bytes and their CRC-32: cached stripe payloads,
        plus every cache-missing stripe in one array read under the
        stripe locks (so a payload read before a write cannot be cached
        after it).

        The CRC is folded extent by extent, in the order the bytes are
        assembled: an extent that covers its stripe's payload takes the
        stripe's CRC, which the array read folded from the CRCs its
        strips were checked with (and the cache keeps with the payload);
        any other extent is hashed.  An extent is a view of its payload
        until the object's join, its one copy."""
        entries: dict[int, tuple[bytes, int]] = {}
        missed = []
        for stripe in dict.fromkeys(ext.stripe for ext in extents):
            hit = self.cache.get(stripe)
            if hit is None:
                missed.append(stripe)
            else:
                entries[stripe] = hit
        if missed:
            async with self._stripe_locks(missed):
                fill = []
                for stripe in missed:
                    hit = self.cache.peek(stripe)  # filled while we waited?
                    if hit is None:
                        fill.append(stripe)
                    else:
                        entries[stripe] = hit
                got = await self.array.read_spans(
                    [(stripe * self.stripe_bytes, self.stripe_bytes) for stripe in fill]
                )
                for stripe, entry in zip(fill, got):
                    self.cache.put(stripe, entry)
                    entries[stripe] = entry
        parts, crc = [], 0
        for ext in extents:
            part, ext_crc = entries[ext.stripe]
            if ext.length != len(part):  # part of a stripe: hash it
                part = memoryview(part)[ext.start : ext.start + ext.length]
                ext_crc = zlib.crc32(part)
            crc = crc32_combine(crc, ext_crc, ext.length)
            parts.append(part)
        return b"".join(parts), crc

    async def _write_extents(
        self, writes: list[tuple[Extent, bytes]], *, read_old: bool = False
    ) -> tuple[list[int], list[bytes] | None]:
        """Write extents' bytes in one array batch, under the stripe
        locks (RMW on a shared stripe must not interleave), with
        write-through cache invalidation of every stripe touched.
        Returns each extent's CRC-32 and, with ``read_old``, the bytes
        each extent's write overwrote (see
        :meth:`~repro.cluster.client.ClusterArray.write_spans`)."""
        stripes = {ext.stripe for ext, _ in writes}
        async with self._stripe_locks(stripes):
            try:
                return await self.array.write_spans(
                    [
                        (ext.stripe * self.stripe_bytes + ext.start, chunk)
                        for ext, chunk in writes
                    ],
                    read_old=read_old,
                )
            finally:
                # A failed batch may still have landed some stripes.
                for stripe in sorted(stripes):
                    self.cache.invalidate(stripe)

    async def _write_object_bytes(self, extents: list[Extent], data: bytes) -> int:
        """Write ``data`` over ``extents``; returns its CRC-32, folded
        from the extents' CRCs.  The array is handed views of ``data``,
        which it hashes in place: no extent is copied before it lands in
        its stripe buffer."""
        writes, pos, view = [], 0, memoryview(data)
        for ext in extents:
            writes.append((ext, view[pos : pos + ext.length]))
            pos += ext.length
        crcs, _ = await self._write_extents(writes)
        crc = 0
        for ext, ext_crc in zip(extents, crcs):
            crc = crc32_combine(crc, ext_crc, ext.length)
        return crc

    # -- the object API -----------------------------------------------------

    async def put(self, name: str, data: bytes) -> ObjectStat:
        """Create or replace ``name`` with ``data`` (whole-object write).

        Replacement is shadow-style: new extents are written before the
        directory swaps and the old extents free, so a mid-write
        failure leaves the previous version fully readable.
        """
        async with self._admitted("put"), self._name_lock(name):
            old = self.index.get(name)
            extents = self.allocator.allocate(len(data))
            try:
                crc = await self._write_object_bytes(extents, data)
            except BaseException:
                self.allocator.release(extents)
                raise
            self._version += 1
            self.index[name] = ObjectMeta(
                name=name,
                size=len(data),
                crc=crc,
                extents=extents,
                version=self._version,
            )
            if old is not None:
                self.allocator.release(old.extents)
            self.metrics.counter("gateway_bytes_in").inc(len(data))
            return self._stat(self.index[name])

    async def get(self, name: str) -> bytes:
        """The full object, CRC-verified end to end."""
        async with self._admitted("get"), self._name_lock(name):
            meta = self._meta(name)
            data, crc = await self._read_extents(meta.extents)
            if crc != meta.crc:
                self.metrics.counter("gateway_integrity_errors").inc()
                raise IntegrityError(
                    f"object {name!r}: CRC mismatch "
                    f"(stored {meta.crc:#010x}, read {crc:#010x})"
                )
            self.metrics.counter("gateway_bytes_out").inc(len(data))
            return data

    async def update(self, name: str, offset: int, data: bytes) -> ObjectStat:
        """Overwrite ``data`` at ``offset`` inside an existing object.

        Only the touched extents are rewritten, in one batch (sub-stripe
        spans take the cluster's delta write); the object keeps its
        size.  The array hands back the bytes the update overwrote, and
        the object's CRC is patched from them
        (:func:`~repro.utils.crc.crc32_patch`), so
        an update reads no more of the object than the strips it
        rewrites.
        """
        if offset < 0:
            raise ValueError("update offset must be >= 0")
        async with self._admitted("update"), self._name_lock(name):
            meta = self._meta(name)
            if offset + len(data) > meta.size:
                raise ValueError(
                    f"update [{offset}, {offset + len(data)}) exceeds object "
                    f"size {meta.size} (use put to grow an object)"
                )
            if not data:
                return self._stat(meta)
            # Rewrite only the extents the span touches, as one batch.
            writes, pos = [], 0
            for ext in meta.extents:
                lo = max(pos, offset)
                hi = min(pos + ext.length, offset + len(data))
                if lo < hi:
                    writes.append((
                        Extent(ext.stripe, ext.start + (lo - pos), hi - lo),
                        bytes(data[lo - offset : hi - offset]),
                    ))
                pos += ext.length
            _, old = await self._write_extents(writes, read_old=True)
            self._version += 1
            meta.crc = crc32_patch(meta.crc, meta.size, offset, b"".join(old), bytes(data))
            meta.version = self._version
            self.metrics.counter("gateway_bytes_in").inc(len(data))
            self.metrics.counter("gateway_rmw_updates").inc()
            return self._stat(meta)

    async def delete(self, name: str) -> None:
        """Remove an object and free its extents."""
        async with self._admitted("delete"), self._name_lock(name):
            meta = self._meta(name)
            del self.index[name]
            self.allocator.release(meta.extents)
        # Name locks are deliberately kept after delete: a waiter that
        # queued on the old lock object must still exclude later ops on
        # the same name.  The map is bounded by the distinct-name count.

    async def stat(self, name: str) -> ObjectStat:
        """Directory metadata (no data I/O, not admission-gated)."""
        return self._stat(self._meta(name))

    async def list_objects(self) -> list[ObjectStat]:
        """All objects, sorted by name (no data I/O)."""
        return [self._stat(self.index[name]) for name in sorted(self.index)]

    # -- internals ----------------------------------------------------------

    def _meta(self, name: str) -> ObjectMeta:
        meta = self.index.get(name)
        if meta is None:
            raise ObjectNotFoundError(name)
        return meta

    def _stat(self, meta: ObjectMeta) -> ObjectStat:
        return ObjectStat(
            name=meta.name,
            size=meta.size,
            crc=meta.crc,
            version=meta.version,
            n_extents=len(meta.extents),
            stripes=tuple(meta.stripes),
        )

    @property
    def free_bytes(self) -> int:
        return self.allocator.free_bytes

    def stats(self) -> dict:
        """Gateway-level snapshot: directory + space + admission, and
        the membership epoch the gateway is routing by -- every extent
        I/O resolves (stripe, column) through the array's holders, so
        the epoch pins which routing generation served the numbers.
        """
        return {
            "objects": len(self.index),
            "bytes_stored": sum(m.size for m in self.index.values()),
            "free_bytes": self.allocator.free_bytes,
            "capacity": self.allocator.capacity,
            "cached_stripes": len(self.cache),
            "inflight": self.admission.inflight,
            "queued": self.admission.queued,
            "epoch": self.array.membership.epoch,
        }
