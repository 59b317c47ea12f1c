"""Blaum-Roth R_p codes (the 1993 construction underlying ref [13]).

Over the ring R_p = GF(2)[x]/M_p(x) (see :mod:`repro.gf.ring`) the
generator is

* P row: ``(1, 1, ..., 1)``
* Q row: ``(1, x, x^2, ..., x^(k-1))``

with strips of ``w = p - 1`` elements and ``k <= p - 1``.  MDS follows
from ``x^i + x^j = x^j (1 + x^(i-j))`` being a unit of R_p for
``i != j`` (verified computationally in the tests).

Historical placement: Blaum & Roth later proved the lowest-density
bound the paper's Table I cites and constructed codes attaining it;
Liberation codes are Plank's minimum-density family with the better
scheduling behaviour.  This module implements the *ring* (BR-93)
construction -- its Q bit-matrices carry one dense column per block
(the ``x^(p-1)`` wrap), so it is MDS but deliberately **not** minimum
density: comparing it against Liberation in the examples shows exactly
what the minimum-density property buys for update cost.

Like Cauchy RS, this implementation rides the bit-matrix substrate
(smart scheduling is the best generic approach known for it, which is
the paper's point about bit-matrix-presented codes).
"""

from __future__ import annotations

import numpy as np

from repro.bitmatrix.decode import bitmatrix_decode_schedule
from repro.bitmatrix.schedule import dumb_schedule, smart_schedule
from repro.codes.base import XorScheduleCode
from repro.gf.ring import PolyRing
from repro.utils.primes import next_prime
from repro.utils.validation import check_prime_p, check_k

__all__ = ["BlaumRothCode"]


class BlaumRothCode(XorScheduleCode):
    """Blaum-Roth RAID-6 code over R_p, via bit-matrices."""

    name = "blaum-roth"
    p_is_row_parity = True

    def __init__(
        self,
        k: int,
        *,
        p: int | None = None,
        element_size: int = 8,
        smart: bool = True,
        execution: str = "kernel",
    ) -> None:
        self.p = check_prime_p(p if p is not None else next_prime(k + 1))
        check_k(k, self.p - 1, code="blaum-roth")
        super().__init__(k, element_size=element_size, execution=execution)
        self.smart = bool(smart)
        self.ring = PolyRing(self.p)
        w = self.ring.w
        gen = np.zeros((2 * w, k * w), dtype=np.uint8)
        for j in range(k):
            gen[:w, j * w : (j + 1) * w] = np.eye(w, dtype=np.uint8)
            gen[w:, j * w : (j + 1) * w] = self.ring.power_matrix(j)
        self.generator = gen

    @property
    def rows(self) -> int:
        return self.p - 1

    def with_k(self, new_k: int):
        """Same ``p`` (strip geometry), different ``k <= p-1``."""
        return type(self)(
            new_k,
            p=self.p,
            element_size=self.element_size,
            smart=self.smart,
            execution=self.execution,
        )

    def build_encode_schedule(self):
        lower = smart_schedule if self.smart else dumb_schedule
        return lower(self.generator, self.rows, self.k, total_cols=self.total_cols)

    def build_decode_schedule(self, erasures):
        return bitmatrix_decode_schedule(
            self.generator,
            self.rows,
            self.k,
            erasures,
            smart=self.smart,
            total_cols=self.total_cols,
        )

    def update(self, buf: np.ndarray, col: int, row: int, new_element: np.ndarray) -> int:
        """Delta small-write via the generator column.

        The dense ``x^(p-1)`` wrap column makes the average ~3 parity
        updates -- the gap to Liberation's ~2 that minimum density
        closes."""
        self.check_stripe(buf)
        if not 0 <= col < self.k:
            raise IndexError(f"update targets data columns only, got {col}")
        delta = np.bitwise_xor(buf[col, row], new_element)
        buf[col, row] = new_element
        column = self.generator[:, col * self.rows + row]
        touched = 0
        for parity_bit in np.nonzero(column)[0]:
            c = self.p_col + int(parity_bit) // self.rows
            r = int(parity_bit) % self.rows
            np.bitwise_xor(buf[c, r], delta, out=buf[c, r])
            touched += 1
        return touched
