"""Schedule execution: the bit-level reference and the streaming executor.

Two executors share one semantics:

* :func:`execute_bits` -- interprets a schedule op-by-op over a
  ``(cols, rows)`` 0/1 array.  This is the reference implementation used
  by correctness tests and by anything that wants exact bit semantics.

* :class:`StreamingSchedule` -- runs the schedule op-by-op over a stripe
  of machine-word elements ``buf[cols, rows, words]``, one NumPy call
  per scheduled op: the paper's per-op cost model, and the word-level
  reference every faster executor is compared against.

The production fast path lowers schedules further, to bulk-XOR slice
kernels (:func:`repro.engine.kernels.compile_kernel`).  The XOR *count*
of a schedule is a property of the schedule itself
(``Schedule.n_xors``), never of the execution strategy; compiling for
speed cannot change the complexity accounting.
"""

from __future__ import annotations

import numpy as np

from repro.engine.ops import Schedule

__all__ = ["execute_bits", "StreamingSchedule"]


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
    rejected rather than silently coded into a temporary.
    """

    def __init__(self, schedule: Schedule) -> None:
        self.cols = schedule.cols
        self.rows = schedule.rows
        arr = schedule.to_array()
        rows = self.rows
        self._dst = (arr[:, 0] * rows + arr[:, 1]).astype(np.intp)
        self._src = (arr[:, 2] * rows + arr[:, 3]).astype(np.intp)
        self._copy = arr[:, 4].astype(bool)

    @property
    def n_ops(self) -> int:
        return self._dst.size

    def run(self, buf: np.ndarray) -> np.ndarray:
        """Execute over ``buf[cols, rows, ...]`` (in place)."""
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
