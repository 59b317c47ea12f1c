"""The RAID-6 array simulator.

Glues a :class:`~repro.codes.base.RAID6Code` to a set of
:class:`~repro.array.disk.SimulatedDisk` via a rotating
:class:`~repro.array.layout.StripeLayout`, and implements the
operational paths the paper's metrics correspond to:

* **full-stripe write** -- one encode (the encoding-throughput
  experiments measure exactly this kernel);
* **small write** -- read-modify-write through the code's delta
  ``update`` (the update-complexity metric = parity strips written);
* **degraded read** -- on any disk/medium error, the stripe is decoded
  on the fly from survivors (decoding-throughput kernel);
* **rebuild** -- whole-array reconstruction onto replacement disks;
* **scrub** -- see :mod:`repro.array.scrub`.

The array is deliberately synchronous and single-threaded: the paper's
evaluation is about coding computation, not queueing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.array.disk import DiskError, LatentSectorError, SimulatedDisk
from repro.array.layout import StripeLayout
from repro.codes.base import RAID6Code
from repro.utils.words import WORD_DTYPE

__all__ = ["ArrayStats", "RAID6Array", "ArrayDegradedError"]


class ArrayDegradedError(Exception):
    """Raised when an operation exceeds the array's fault tolerance."""


@dataclass
class ArrayStats:
    """Operation counters for the whole array."""

    full_stripe_writes: int = 0
    small_writes: int = 0
    parity_strip_writes: int = 0
    degraded_reads: int = 0
    stripes_rebuilt: int = 0
    latent_repairs: int = 0

    def reset(self) -> None:
        self.full_stripe_writes = 0
        self.small_writes = 0
        self.parity_strip_writes = 0
        self.degraded_reads = 0
        self.stripes_rebuilt = 0
        self.latent_repairs = 0


class RAID6Array:
    """A ``k + 2``-disk RAID-6 array over a pluggable erasure code."""

    def __init__(
        self, code: RAID6Code, n_stripes: int = 64, *, layout: StripeLayout | None = None
    ) -> None:
        self.code = code
        if layout is None:
            layout = StripeLayout(code.k, code.rows, code.element_size, n_stripes)
        elif (layout.k, layout.rows, layout.element_size) != (
            code.k,
            code.rows,
            code.element_size,
        ):
            raise ValueError("layout geometry does not match the code")
        self.layout = layout
        strip_words = code.rows * (code.element_size // 8)
        self.disks = [
            SimulatedDisk(d, layout.n_stripes, strip_words)
            for d in range(layout.n_disks)
        ]
        self.stats = ArrayStats()

    # -- basics -------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """User-addressable bytes."""
        return self.layout.capacity_bytes

    def failed_disks(self) -> list[int]:
        return [d.disk_id for d in self.disks if d.failed]

    def _strip_view(self, strip_words: np.ndarray) -> np.ndarray:
        """Reshape a flat strip to ``(rows, words_per_element)``."""
        return strip_words.reshape(self.code.rows, -1)

    # -- stripe gather / scatter ------------------------------------------------

    def read_stripe(
        self, stripe: int, *, reconstruct: bool = True, heal_latent: bool = True
    ) -> np.ndarray:
        """Assemble the full stripe buffer, decoding unreadable strips.

        Returns a ``(total_cols, rows, words)`` buffer in logical column
        order.  With ``reconstruct=False``, unreadable columns are left
        zeroed and no decode is attempted.

        ``heal_latent``: a strip lost to a *medium* error (as opposed to
        a whole-disk failure) is rewritten with its reconstructed
        contents, as production arrays do -- otherwise every latent
        error would permanently consume one unit of the stripe's
        two-failure budget.
        """
        code = self.code
        buf = code.alloc_stripe()
        missing: list[int] = []
        latent: list[int] = []
        for col in range(code.n_cols):
            disk = self.disks[self.layout.disk_for(stripe, col)]
            try:
                buf[col] = self._strip_view(disk.read_strip(stripe))
            except LatentSectorError:
                missing.append(col)
                latent.append(col)
            except DiskError:
                missing.append(col)
        if missing and reconstruct:
            if len(missing) > 2:
                raise ArrayDegradedError(
                    f"stripe {stripe}: {len(missing)} unreadable columns {missing}"
                )
            code.decode(buf, missing)
            self.stats.degraded_reads += 1
            if heal_latent and latent:
                self.write_stripe(stripe, buf, columns=latent)
                self.stats.latent_repairs += len(latent)
        return buf

    def write_stripe(
        self, stripe: int, buf: np.ndarray, *, columns=None, skip_failed: bool = True
    ) -> None:
        """Scatter (selected columns of) a stripe buffer to the disks.

        With ``skip_failed`` (the default), strips destined for failed
        disks are dropped -- the degraded-write semantics of real
        arrays: the lost column stays recoverable through the parity
        that *was* written.
        """
        code = self.code
        cols = range(code.n_cols) if columns is None else columns
        for col in cols:
            disk = self.disks[self.layout.disk_for(stripe, col)]
            if disk.failed and skip_failed:
                continue
            disk.write_strip(stripe, buf[col].reshape(-1))

    # -- user I/O -------------------------------------------------------------------

    def write(self, offset: int, data: bytes) -> None:
        """Write user bytes at ``offset``.

        Stripe-aligned, stripe-sized spans take the full-stripe path
        (compute parity once, write everything); everything else is
        element-granular read-modify-write through ``code.update``.
        """
        if not data:
            return
        sdb = self.layout.stripe_data_bytes
        pos, end = offset, offset + len(data)
        while pos < end:
            stripe = pos // sdb
            stripe_start = stripe * sdb
            if pos == stripe_start and end - pos >= sdb:
                self._write_full_stripe(
                    stripe, data[pos - offset : pos - offset + sdb]
                )
                pos += sdb
            else:
                take = min(end, stripe_start + sdb) - pos
                self._write_small(pos, data[pos - offset : pos - offset + take])
                pos += take

    def _write_full_stripe(self, stripe: int, payload: bytes) -> None:
        code = self.code
        buf = code.alloc_stripe()
        words = np.frombuffer(payload, dtype=np.uint8)
        elem = code.element_size
        for col in range(code.k):
            start = col * code.strip_bytes
            strip = words[start : start + code.strip_bytes]
            buf[col] = strip.view(WORD_DTYPE).reshape(code.rows, -1)
        code.encode(buf)
        self.write_stripe(stripe, buf)
        self.stats.full_stripe_writes += 1
        self.stats.parity_strip_writes += 2

    def _write_small(self, offset: int, payload: bytes) -> None:
        """Element-granular RMW within one stripe."""
        code = self.code
        pieces = self.layout.byte_range_elements(offset, len(payload))
        pos = 0
        for addr, lo, hi in pieces:
            stripe = addr.stripe
            buf = self.read_stripe(stripe)
            old = buf[addr.column, addr.row].view(np.uint8).copy()
            old[lo:hi] = np.frombuffer(payload[pos : pos + (hi - lo)], dtype=np.uint8)
            pos += hi - lo
            new_elem = old.view(WORD_DTYPE)
            touched = code.update(buf, addr.column, addr.row, new_elem)
            # Persist the data strip and every touched parity strip.
            self.write_stripe(stripe, buf, columns=[addr.column])
            parity_cols = sorted({c for c in (code.p_col, code.q_col)})
            self.write_stripe(stripe, buf, columns=parity_cols)
            self.stats.small_writes += 1
            self.stats.parity_strip_writes += len(parity_cols)
            del touched

    def read(self, offset: int, length: int) -> bytes:
        """Read user bytes, transparently decoding around failures."""
        if length == 0:
            return b""
        pieces = self.layout.byte_range_elements(offset, length)
        out = bytearray()
        cache: dict[int, np.ndarray] = {}
        for addr, lo, hi in pieces:
            disk = self.disks[addr.disk]
            try:
                strip = self._strip_view(disk.read_strip(addr.stripe))
                elem = strip[addr.row]
            except DiskError:
                if addr.stripe not in cache:
                    cache[addr.stripe] = self.read_stripe(addr.stripe)
                elem = cache[addr.stripe][addr.column, addr.row]
            out += elem.view(np.uint8)[lo:hi].data  # zero-copy view append
        return bytes(out)

    # -- failure handling ------------------------------------------------------------

    def fail_disk(self, disk_id: int) -> None:
        """Inject a whole-disk failure."""
        if len(self.failed_disks()) >= 2:
            raise ArrayDegradedError("array already has two failed disks")
        self.disks[disk_id].fail()

    def rebuild(self) -> int:
        """Reconstruct all failed disks onto replacements.

        Returns the number of stripes rebuilt.  Raises
        :class:`ArrayDegradedError` if more than two disks are down.
        """
        dead = self.failed_disks()
        if not dead:
            return 0
        if len(dead) > 2:
            raise ArrayDegradedError(f"{len(dead)} failed disks exceed RAID-6 tolerance")
        # Only stripes that place a column on a dead disk need work --
        # with a declustered layout that is a fraction of the array,
        # which is exactly how declustering shortens the rebuild window.
        affected = [
            stripe
            for stripe in range(self.layout.n_stripes)
            if any(self.layout.column_for(stripe, d) is not None for d in dead)
        ]
        # Reconstruct *before* swapping in blank disks: read_stripe
        # decodes the dead columns together with any latent sector
        # errors on surviving disks (and heals the latter), so a medium
        # error discovered during rebuild cannot silently inject zeros
        # into the reconstruction.
        recovered = {stripe: self.read_stripe(stripe) for stripe in affected}
        for d in dead:
            self.disks[d].replace()
        for stripe, buf in recovered.items():
            cols = [
                c
                for c in (self.layout.column_for(stripe, d) for d in dead)
                if c is not None
            ]
            self.write_stripe(stripe, buf, columns=cols)
        self.stats.stripes_rebuilt += len(affected)
        return len(affected)

    # -- online growth --------------------------------------------------------------

    def grow_data_disk(self):
        """Add one data disk (``k -> k+1``) without recomputing parity.

        The Liberation scalability property the paper's §III Case (b)
        relies on: with ``p`` fixed, a new all-zero data column changes
        neither parity strip, so growth is pure data movement -- each
        stripe keeps its old strips (relocated for the wider rotation)
        plus one zeroed strip; ``encode`` is never called.

        Stripe-local data is preserved in place; because the per-stripe
        data size grows, *global* byte offsets of existing data shift.
        Returns ``translate(old_offset) -> new_offset`` so callers can
        re-address (an offline restripe, as in real capacity expansion).

        Raises if the code cannot take another column at its fixed
        geometry (e.g. Liberation at ``k = p``) or if any disk is down.
        """
        if self.failed_disks():
            raise ArrayDegradedError("grow requires a healthy array")
        old_code, old_layout = self.code, self.layout
        new_code = old_code.with_k(old_code.k + 1)
        if new_code.rows != old_code.rows or new_code.element_size != old_code.element_size:
            raise ValueError("grown code changed the strip geometry")

        # Gather every stripe under the old layout first.
        stripes = [
            self.read_stripe(s, reconstruct=False)
            for s in range(old_layout.n_stripes)
        ]

        # Swap in the wider geometry and a fresh disk.
        self.code = new_code
        self.layout = StripeLayout(
            new_code.k, new_code.rows, new_code.element_size, old_layout.n_stripes
        )
        strip_words = new_code.rows * (new_code.element_size // 8)
        self.disks.append(
            SimulatedDisk(len(self.disks), old_layout.n_stripes, strip_words)
        )

        # Scatter: old data columns keep their contents, the new column
        # k_old is zero, parity strips move over verbatim.
        k_old = old_code.k
        for s, old_buf in enumerate(stripes):
            buf = new_code.alloc_stripe()
            buf[:k_old] = old_buf[:k_old]
            buf[new_code.p_col] = old_buf[old_code.p_col]
            buf[new_code.q_col] = old_buf[old_code.q_col]
            self.write_stripe(s, buf)

        old_sdb = old_layout.stripe_data_bytes
        new_sdb = self.layout.stripe_data_bytes

        def translate(old_offset: int) -> int:
            stripe, within = divmod(old_offset, old_sdb)
            return stripe * new_sdb + within

        return translate

    def __repr__(self) -> str:
        return (
            f"RAID6Array(code={self.code.name}, k={self.code.k}, "
            f"stripes={self.layout.n_stripes}, failed={self.failed_disks()})"
        )
