"""Batch stripe coding.

Real arrays encode/decode *streams* of stripes, not one; this module
provides that layer:

* :func:`alloc_batch` / :class:`BatchCoder` -- process ``n`` stripes as
  one ``(n, cols, rows, words)`` buffer;
* the **kernel wide path**: when the code executes via levelized
  bulk-XOR kernels (:mod:`repro.engine.kernels`), a whole batch runs as
  *one* bound slice program over the zero-copy transposed view
  ``batch.transpose(1, 2, 0, 3)`` -- every bulk-XOR call then covers
  all ``n`` stripes at once, amortising the per-call NumPy dispatch
  floor that dominates single-stripe runs (this is where the data
  plane's >5x over streaming execution comes from);
* a serial per-stripe fallback for every other code (Reed-Solomon,
  streaming execution);
* a batch given as its **columns** (:class:`BatchColumns`), one array
  ``[rows, n, ...]`` per column -- the transposed view of that column
  of every stripe, laid out stripe-major where it already sits (a
  window's reply frames, say) -- which the decode hands to
  ``code.decode`` as it is, so the plan binds over those arrays once.

Results are bit-identical across all paths -- the differential tests
pin that.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.codes.base import RAID6Code, XorScheduleCode
from repro.utils.validation import check_erasures
from repro.utils.words import WORD_DTYPE, element_words

__all__ = ["alloc_batch", "alloc_word_batch", "iter_batches", "BatchColumns", "BatchCoder"]


def iter_batches(n: int, batch_size: int):
    """Yield ``(start, stop)`` bounds covering ``range(n)`` in chunks.

    The outer loop of every bulk coding consumer (the cluster's rebuild
    scheduler streams stripes through :class:`BatchCoder` in exactly
    these windows, bounding peak memory to one batch).
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    for start in range(0, n, batch_size):
        yield start, min(start + batch_size, n)


def alloc_batch(code: RAID6Code, n_stripes: int) -> np.ndarray:
    """A zeroed ``(n_stripes, total_cols, rows, words)`` batch buffer."""
    if n_stripes <= 0:
        raise ValueError(f"n_stripes must be positive, got {n_stripes}")
    return np.zeros(
        (n_stripes, code.total_cols, code.rows, element_words(code.element_size)),
        dtype=WORD_DTYPE,
    )


def alloc_word_batch(code: RAID6Code, n_stripes: int) -> np.ndarray:
    """A zeroed word-packed batch ``(total_cols, rows, n_stripes*words)``.

    The kernel data plane's native layout: stripe ``i`` occupies words
    ``[i*words, (i+1)*words)`` of every cell, so a
    :class:`~repro.engine.kernels.KernelPlan` compiled for one stripe
    runs the whole batch in one bound program over a fully contiguous
    buffer (no transposed view needed).  Use
    ``buf[..., i*words:(i+1)*words]`` to address stripe ``i``.
    """
    if n_stripes <= 0:
        raise ValueError(f"n_stripes must be positive, got {n_stripes}")
    return np.zeros(
        (code.total_cols, code.rows, n_stripes * element_words(code.element_size)),
        dtype=WORD_DTYPE,
    )


class BatchColumns(list):
    """A batch of ``n`` stripes given as its columns: one array
    ``[rows, n, ...]`` per stripe-buffer column, that column of every
    stripe, or ``None`` for a column the decode never touches -- the
    form ``code.decode`` takes a stripe's columns in
    (:meth:`~repro.codes.base.RAID6Code.decode`), one stripe axis wider.

    Each array is typically the transposed view of a stripe-major
    ``[n, rows, ...]`` array, so stripe ``i``'s strip of a column is
    that array's contiguous row ``i``.  :attr:`shape` reads as a batch
    buffer's, ``(n, cols, rows, ...)``, so whatever sizes a batch by its
    shape reads either form alike.
    """

    @property
    def shape(self) -> tuple[int, ...]:
        rows, n, *rest = next(col for col in self if col is not None).shape
        return (n, len(self), rows, *rest)


class BatchCoder:
    """Encode/decode many stripes of one code.

    Stripes are independent, so a batch codes exactly as its stripes
    would one at a time.
    """

    def __init__(self, code: RAID6Code) -> None:
        self.code = code
        #: transposed-view cache for the kernel wide path, keyed by
        #: batch identity.  Returning the *same* view object per batch
        #: lets the plan's bound-program cache hit, so steady-state
        #: batch coding rebinds nothing.
        self._views: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # -- internals ---------------------------------------------------------

    def _check_batch(self, batch: np.ndarray) -> None:
        code = self.code
        expected = (code.total_cols, code.rows, element_words(code.element_size))
        if batch.ndim != 4 or batch.shape[1:] != expected:
            raise ValueError(
                f"batch shape {batch.shape} does not match (n, {expected})"
            )

    def _wide_plan(self, erasures: tuple[int, ...] | None):
        """The code's kernel plan when the wide path applies, else None.

        The wide path is the kernel data plane's.  Streaming codes keep
        the per-stripe loop (one region op per scheduled op per stripe,
        the cost model they exist to measure), and codes without
        schedules have no plan.
        """
        code = self.code
        if not isinstance(code, XorScheduleCode) or code.execution != "kernel":
            return None
        return code.plan(erasures)

    def _wide_view(self, batch: np.ndarray) -> np.ndarray:
        """Zero-copy kernel view of ``batch``: (cols, rows, n, words)."""
        entry = self._views.get(id(batch))
        if entry is not None and entry[0] is batch:
            return entry[1]
        view = batch.transpose(1, 2, 0, 3)
        if len(self._views) >= 4:
            self._views.pop(next(iter(self._views)))
        self._views[id(batch)] = (batch, view)
        return view

    def _run(
        self, batch: np.ndarray, fn: Callable[[np.ndarray], object], plan
    ) -> np.ndarray:
        if plan is not None:
            plan.run(self._wide_view(batch))
        else:
            for stripe in batch:
                fn(stripe)
        return batch

    # -- public API -------------------------------------------------------------

    def encode(self, batch: np.ndarray) -> np.ndarray:
        """Fill parity columns of every stripe in the batch, in place."""
        self._check_batch(batch)
        return self._run(batch, self.code.encode, self._wide_plan(None))

    def decode(
        self, batch: np.ndarray | BatchColumns, erasures: Sequence[int]
    ) -> np.ndarray | BatchColumns:
        """Recover the same erasure pattern in every stripe, in place.

        (Bulk reconstruction after a disk failure is exactly this
        shape: one pattern, many stripes.)  A batch given as its columns
        (:class:`BatchColumns`) goes to ``code.decode`` as it is, which
        checks it and binds the pattern's plan over it once.
        """
        ers = check_erasures(erasures, self.code.n_cols)
        if isinstance(batch, BatchColumns):
            if ers:
                self.code.decode(batch, ers)
            return batch
        self._check_batch(batch)
        if not ers:
            return batch
        return self._run(
            batch,
            lambda stripe: self.code.decode(stripe, ers),
            self._wide_plan(ers),
        )
