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
* **End-to-end integrity.**  The CRC-32 of the full object is computed
  when bytes enter and re-verified when they leave
  (:class:`IntegrityError` on mismatch) -- above and independent of
  the wire-frame CRCs and the scrubber's per-strip sidecars, closing
  the gap both leave (a correctly-stored wrong byte, e.g. a layout
  bug, is caught here).  An update patches the CRC from the bytes it
  overwrote (:func:`crc32_patch`) instead of re-reading the object.
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

__all__ = [
    "GatewayError",
    "ObjectNotFoundError",
    "IntegrityError",
    "ObjectStat",
    "ObjectGateway",
    "NoSpaceError",
    "Overloaded",
    "crc32_patch",
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


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def crc32_patch(crc: int, size: int, offset: int, old: bytes, new: bytes) -> int:
    """The CRC-32 of a ``size``-byte object whose CRC-32 is ``crc``, once
    the bytes ``old`` at ``offset`` read ``new`` -- from the patch alone.

    CRC-32 is affine: for A and D of equal length n, crc(A xor D) =
    crc(A) xor crc(D) xor crc(0^n).  Here D is ``old xor new`` at
    ``offset`` and zero elsewhere.  The zeros before the patch leave
    the linear part of the CRC at zero, so only the patch and the
    zeros after it are hashed.
    """
    if len(old) != len(new) or not 0 <= offset <= size - len(new):
        raise ValueError(f"a {len(new)} B patch at {offset} of a {size} B object")
    n, after = len(new), size - offset - len(new)
    diff = (int.from_bytes(old, "little") ^ int.from_bytes(new, "little")).to_bytes(
        n, "little"
    )
    zeros = bytes(after)
    patched = zlib.crc32(zeros, zlib.crc32(diff))
    unpatched = zlib.crc32(zeros, zlib.crc32(bytes(n)))
    return (crc ^ patched ^ unpatched) & 0xFFFFFFFF


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

    async def _read_extents(self, extents: list[Extent]) -> bytes:
        """An object's bytes: cached stripe payloads, plus every
        cache-missing stripe in one array read under the stripe locks
        (so a payload read before a write cannot be cached after it)."""
        payloads: dict[int, bytes] = {}
        missed = []
        for stripe in dict.fromkeys(ext.stripe for ext in extents):
            hit = self.cache.get(stripe)
            if hit is None:
                missed.append(stripe)
            else:
                payloads[stripe] = hit
        if missed:
            async with self._stripe_locks(missed):
                fill = []
                for stripe in missed:
                    hit = self.cache.peek(stripe)  # filled while we waited?
                    if hit is None:
                        fill.append(stripe)
                    else:
                        payloads[stripe] = hit
                got = await self.array.read_spans(
                    [(stripe * self.stripe_bytes, self.stripe_bytes) for stripe in fill]
                )
                for stripe, payload in zip(fill, got):
                    self.cache.put(stripe, payload)
                    payloads[stripe] = payload
        return b"".join(
            payloads[ext.stripe][ext.start : ext.start + ext.length] for ext in extents
        )

    async def _write_extents(
        self, writes: list[tuple[Extent, bytes]], *, read_old: bool = False
    ) -> list[bytes] | None:
        """Write extents' bytes in one array batch, under the stripe
        locks (RMW on a shared stripe must not interleave), with
        write-through cache invalidation of every stripe touched.  With
        ``read_old``, returns the bytes each extent's write overwrote."""
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

    async def _write_object_bytes(self, extents: list[Extent], data: bytes) -> None:
        writes, pos = [], 0
        for ext in extents:
            writes.append((ext, data[pos : pos + ext.length]))
            pos += ext.length
        await self._write_extents(writes)

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
                await self._write_object_bytes(extents, data)
            except BaseException:
                self.allocator.release(extents)
                raise
            self._version += 1
            self.index[name] = ObjectMeta(
                name=name,
                size=len(data),
                crc=_crc(data),
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
            data = await self._read_extents(meta.extents)
            if _crc(data) != meta.crc:
                self.metrics.counter("gateway_integrity_errors").inc()
                raise IntegrityError(
                    f"object {name!r}: CRC mismatch "
                    f"(stored {meta.crc:#010x}, read {_crc(data):#010x})"
                )
            self.metrics.counter("gateway_bytes_out").inc(len(data))
            return data

    async def update(self, name: str, offset: int, data: bytes) -> ObjectStat:
        """Overwrite ``data`` at ``offset`` inside an existing object.

        Only the touched extents are rewritten, in one batch (sub-stripe
        spans take the cluster's delta write); the object keeps its
        size.  The array hands back the bytes the update overwrote, and
        the object's CRC is patched from them (:func:`crc32_patch`), so
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
            old = await self._write_extents(writes, read_old=True)
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
