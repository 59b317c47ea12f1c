"""In-memory simulated disks.

A :class:`SimulatedDisk` stores whole *strips* (one column's share of a
stripe, ``rows * element_size`` bytes) and models the failure modes the
paper's storage context cares about:

* **whole-disk failure** -- every access raises until the disk is
  replaced (RAID-6's raison d'etre: two of these at once);
* **latent sector errors** -- individual strips marked unreadable
  (the "uncorrectable read error during recovery" scenario from §I);
* **silent corruption** -- a strip's contents flipped without any error
  signal, detectable only by scrubbing.

I/O statistics are tracked per disk so tests and examples can assert
on traffic (e.g. update-complexity experiments count parity writes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.words import WORD_DTYPE

__all__ = ["DiskError", "DiskFailedError", "LatentSectorError", "DiskStats", "SimulatedDisk"]


class DiskError(Exception):
    """Base class for simulated disk faults."""


class DiskFailedError(DiskError):
    """The whole disk is offline."""


class LatentSectorError(DiskError):
    """A specific strip is unreadable (medium error)."""


@dataclass
class DiskStats:
    """Cumulative I/O counters."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def reset(self) -> None:
        self.reads = self.writes = self.bytes_read = self.bytes_written = 0


class SimulatedDisk:
    """A strip-granular in-memory block device."""

    def __init__(self, disk_id: int, n_strips: int, strip_words: int) -> None:
        if n_strips <= 0 or strip_words <= 0:
            raise ValueError("disk geometry must be positive")
        self.disk_id = int(disk_id)
        self.n_strips = int(n_strips)
        self.strip_words = int(strip_words)
        self._store = np.zeros((n_strips, strip_words), dtype=WORD_DTYPE)
        #: the same storage as one read-only run of words, which
        #: :meth:`read_view` slices
        self._words = self._store.reshape(-1)
        self._words.flags.writeable = False
        self._failed = False
        self._latent: set[int] = set()
        self.stats = DiskStats()

    # -- health ----------------------------------------------------------

    @property
    def failed(self) -> bool:
        return self._failed

    def fail(self) -> None:
        """Take the disk offline (whole-device failure)."""
        self._failed = True

    def replace(self) -> None:
        """Swap in a fresh (zeroed) replacement disk."""
        self._store[:] = 0
        self._latent.clear()
        self._failed = False
        self.stats.reset()

    def mark_latent_error(self, strip: int) -> None:
        """Make one strip unreadable until it is next rewritten."""
        self._check_strip(strip)
        self._latent.add(strip)

    def corrupt(self, strip: int, pattern: np.ndarray | None = None, *, seed: int | None = None) -> None:
        """Silently flip bits in a strip (no error is ever signalled)."""
        self._check_strip(strip)
        if pattern is None:
            rng = np.random.default_rng(seed)
            pattern = rng.integers(1, 2**64, self.strip_words, dtype=WORD_DTYPE)
        self._store[strip] ^= np.asarray(pattern, dtype=WORD_DTYPE)

    # -- I/O -----------------------------------------------------------------

    def _check_strip(self, strip: int) -> None:
        if not 0 <= strip < self.n_strips:
            raise IndexError(
                f"strip {strip} out of range [0, {self.n_strips}) on disk {self.disk_id}"
            )

    def read_strip(self, strip: int) -> np.ndarray:
        """Return a copy of a strip's words."""
        return self.read_view(strip).copy()

    def read_view(self, strip: int, count: int = 1) -> np.ndarray:
        """The words of ``count`` consecutive strips from ``strip``, one
        strip after another, as one flat read-only view of the disk's
        storage.

        A failed disk raises, and so does a latent sector on any strip
        of the range, before anything is counted; otherwise each strip
        counts as one read.  The view shows the strips as they are, so a
        later write shows through it: a caller that keeps the bytes past
        its next ``await`` copies them.
        """
        if count < 1:
            raise ValueError(f"count must be positive, got {count}")
        if not 0 <= strip <= self.n_strips - count:
            raise IndexError(
                f"strips [{strip}, {strip + count}) out of range [0, {self.n_strips}) "
                f"on disk {self.disk_id}"
            )
        if self._failed:
            raise DiskFailedError(f"disk {self.disk_id} is failed")
        if self._latent:
            latent = self._latent.intersection(range(strip, strip + count))
            if latent:
                raise LatentSectorError(
                    f"disk {self.disk_id} strip {min(latent)} unreadable"
                )
        self.stats.reads += count
        self.stats.bytes_read += count * self.strip_words * 8
        return self._words[strip * self.strip_words : (strip + count) * self.strip_words]

    def write_strip(self, strip: int, words: np.ndarray) -> None:
        """Overwrite a strip (clears any latent error on it)."""
        self._check_strip(strip)
        if self._failed:
            raise DiskFailedError(f"disk {self.disk_id} is failed")
        words = np.asarray(words, dtype=WORD_DTYPE).reshape(-1)
        if words.size != self.strip_words:
            raise ValueError(
                f"strip write size {words.size} words != {self.strip_words}"
            )
        self._store[strip] = words
        self._latent.discard(strip)
        self.stats.writes += 1
        self.stats.bytes_written += self.strip_words * 8

    def __repr__(self) -> str:
        state = "FAILED" if self._failed else f"ok, {len(self._latent)} latent"
        return f"SimulatedDisk(id={self.disk_id}, strips={self.n_strips}, {state})"
