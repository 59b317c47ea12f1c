"""Schedule execution: the bit-level reference and the streaming executor.

Two executors share one semantics:

* :func:`execute_bits` -- interprets a schedule op-by-op over a
  ``(cols, rows)`` 0/1 array.  This is the reference implementation used
  by correctness tests and by anything that wants exact bit semantics.

* :class:`StreamingSchedule` -- runs the schedule op-by-op over a stripe
  of machine-word elements ``buf[cols, rows, words]``, one NumPy call
  per scheduled op: the paper's per-op cost model, and the word-level
  reference every faster executor is compared against.

Both word executors (this one and the kernel plan) also run over a
stripe given as its **columns**: a sequence of ``cols`` arrays
``[rows, ...]``, one per column, with ``None`` for a column the
schedule never touches (:func:`checked_columns`).  That is how a
degraded read decodes straight from the strips it received: each
survivor is a read-only byte view of its reply frame, and only the
columns the schedule writes are fresh arrays.

The production fast path lowers schedules further, to bulk-XOR slice
kernels (:func:`repro.engine.kernels.compile_kernel`).  The XOR *count*
of a schedule is a property of the schedule itself
(``Schedule.n_xors``), never of the execution strategy; compiling for
speed cannot change the complexity accounting.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence
from typing import overload

import numpy as np

from repro.engine.ops import Schedule

__all__ = ["execute_bits", "StreamingSchedule", "Columns", "checked_columns"]

#: A stripe given as its columns: one array ``[rows, ...]`` per column,
#: or ``None`` for a column the program never touches.
Columns = Sequence["np.ndarray | None"]


def checked_columns(
    columns: Columns, cols: int, rows: int, *,
    reads: Collection[int], writes: Collection[int],
) -> list[np.ndarray | None]:
    """``columns`` as a list, checked for a program over ``cols`` columns
    of ``rows`` rows that reads ``reads`` and writes ``writes``.

    Raises :class:`ValueError` when the count is not ``cols``, when a
    column the program touches was not supplied, when one it writes is
    read-only, or when the supplied columns differ in shape or dtype
    (each op pairs two of them element for element) or do not have
    ``rows`` rows.
    """
    listed = list(columns)
    if len(listed) != cols:
        raise ValueError(f"{len(listed)} columns given; the program has {cols}")
    for col in sorted({*reads, *writes}):
        if listed[col] is None:
            raise ValueError(f"the program touches column {col}, which was not supplied")
    for col in sorted(writes):
        column = listed[col]
        assert column is not None
        if not column.flags.writeable:
            raise ValueError(f"the program writes column {col}, which is read-only")
    forms = {(c.shape, c.dtype) for c in listed if c is not None}
    if len(forms) > 1:
        raise ValueError(f"columns differ in shape or dtype: {sorted(map(str, forms))}")
    for shape, _ in forms:
        if len(shape) < 2 or shape[0] != rows:
            raise ValueError(f"column shape {shape} does not have {rows} rows")
    return listed


def execute_bits(schedule: Schedule, bits: np.ndarray) -> np.ndarray:
    """Run ``schedule`` in place over a ``(cols, rows)`` 0/1 array.

    Returns ``bits`` for convenience.
    """
    if bits.shape != (schedule.cols, schedule.rows):
        raise ValueError(
            f"bit array shape {bits.shape} does not match schedule "
            f"({schedule.cols}, {schedule.rows})"
        )
    for op in schedule:
        if op.copy:
            bits[op.dst_col, op.dst_row] = bits[op.src_col, op.src_row]
        else:
            bits[op.dst_col, op.dst_row] ^= bits[op.src_col, op.src_row]
    return bits


class StreamingSchedule:
    """Op-at-a-time execution, mirroring Jerasure's region operations.

    Jerasure executes a schedule as one ``galois_region_xor`` (or
    memcpy) per scheduled operation; throughput is therefore
    proportional to the *operation count* -- which is exactly the
    quantity the paper's algorithms minimise.  This executor preserves
    that model: one NumPy XOR/copy over the element per op, no fusion.
    Use it for paper-faithful throughput comparisons; the kernel plan
    (:mod:`repro.engine.kernels`) is the production fast path.

    Like the kernel plan, it accepts any trailing shape beyond the
    first two axes (a word-packed batch, or a transposed stripe-major
    batch view).  The ``(cols, rows)`` axes must merge into one without
    a copy; a view where they cannot (a Fortran-ordered stripe) is
    rejected rather than silently coded into a temporary.  Given the
    stripe as its columns (:func:`checked_columns`), it indexes each
    cell as ``columns[col][row]``.
    """

    def __init__(self, schedule: Schedule) -> None:
        self.cols = schedule.cols
        self.rows = schedule.rows
        arr = schedule.to_array()
        rows = self.rows
        self._dst = (arr[:, 0] * rows + arr[:, 1]).astype(np.intp)
        self._src = (arr[:, 2] * rows + arr[:, 3]).astype(np.intp)
        self._copy = arr[:, 4].astype(bool)
        self._writes = {int(c) for c in arr[:, 0]}
        self._reads = {int(c) for c in arr[:, 2]}

    @property
    def n_ops(self) -> int:
        return self._dst.size

    @overload
    def run(self, buf: np.ndarray) -> np.ndarray: ...

    @overload
    def run(self, buf: Columns) -> Columns: ...

    def run(self, buf: np.ndarray | Columns) -> np.ndarray | Columns:
        """Execute over ``buf[cols, rows, ...]``, or over the stripe
        given as its columns, in place."""
        if not isinstance(buf, np.ndarray):
            self._run_columns(buf)
            return buf
        if buf.ndim < 3 or buf.shape[:2] != (self.cols, self.rows):
            raise ValueError(
                f"stripe shape {buf.shape} does not match schedule "
                f"({self.cols}, {self.rows}, words...)"
            )
        flat = buf.reshape((self.cols * self.rows,) + buf.shape[2:])
        if flat.size and not np.may_share_memory(flat, buf):
            raise ValueError(
                "the stripe's (cols, rows) axes cannot merge into one "
                "without a copy; pass a C-ordered stripe"
            )
        for dst, src, is_copy in zip(self._dst, self._src, self._copy):
            if is_copy:
                flat[dst] = flat[src]
            else:
                np.bitwise_xor(flat[dst], flat[src], out=flat[dst])
        return buf

    def _run_columns(self, columns: Columns) -> None:
        cols = checked_columns(
            columns, self.cols, self.rows, reads=self._reads, writes=self._writes
        )
        for dst, src, is_copy in zip(self._dst, self._src, self._copy):
            dc, dr = divmod(int(dst), self.rows)
            sc, sr = divmod(int(src), self.rows)
            target, source = cols[dc], cols[sc]
            assert target is not None and source is not None
            if is_copy:
                target[dr] = source[sr]
            else:
                np.bitwise_xor(target[dr], source[sr], out=target[dr])
