"""Cauchy Reed-Solomon as a RAID-6 XOR code.

The third coding technique Jerasure ships (besides Vandermonde RS and
Liberation): an MDS generator for any ``k`` with ``k + 2 <= 2^w``,
lowered to XOR schedules through the bit-matrix substrate.  With the
"good" matrix its P row is plain RAID-5 parity, so it is P+Q compliant;
its Q row costs substantially more XORs than the diagonal-structured
codes, which is precisely why the paper's lineage of array codes
(EVENODD/RDP/Liberation) exists.  Included to complete the substrate
and as a reference point in the comparison examples.
"""

from __future__ import annotations

import numpy as np

from repro.bitmatrix.cauchy import (
    cauchy_bitmatrix,
    cauchy_good_matrix,
    cauchy_original_matrix,
    min_w_for,
)
from repro.bitmatrix.decode import bitmatrix_decode_schedule
from repro.bitmatrix.schedule import smart_schedule
from repro.codes.base import XorScheduleCode
from repro.gf.gf2w import GF2w

__all__ = ["CauchyRSCode"]


class CauchyRSCode(XorScheduleCode):
    """Cauchy Reed-Solomon RAID-6 over GF(2^w) bit-matrices."""

    name = "cauchy-rs"

    def __init__(
        self,
        k: int,
        *,
        w: int | None = None,
        good: bool = True,
        element_size: int = 8,
        execution: str = "kernel",
    ) -> None:
        self.w = int(w) if w is not None else min_w_for(k)
        if k + 2 > (1 << self.w):
            raise ValueError(f"cauchy-rs: k + 2 = {k + 2} needs w > {self.w}")
        super().__init__(k, element_size=element_size, execution=execution)
        self.good = bool(good)
        self.gf = GF2w(self.w)
        build = cauchy_good_matrix if good else cauchy_original_matrix
        self.field_matrix = build(self.gf, self.k, 2)
        # P is the row parity when the P row's field elements are all 1
        # (the good matrix normalises them so; the original does not).
        self.p_is_row_parity = all(int(e) == 1 for e in self.field_matrix[0])
        self.generator = cauchy_bitmatrix(self.gf, self.field_matrix)

    @property
    def rows(self) -> int:
        return self.w

    def with_k(self, new_k: int):
        """Same ``w`` (strip geometry), different ``k``."""
        return type(self)(
            new_k,
            w=self.w,
            good=self.good,
            element_size=self.element_size,
            execution=self.execution,
        )

    def build_encode_schedule(self):
        # Smart scheduling genuinely helps dense Cauchy rows.
        return smart_schedule(self.generator, self.w, self.k, total_cols=self.total_cols)

    def build_decode_schedule(self, erasures):
        return bitmatrix_decode_schedule(
            self.generator, self.w, self.k, erasures, total_cols=self.total_cols
        )

    def update(self, buf: np.ndarray, col: int, row: int, new_element: np.ndarray) -> int:
        """Delta small-write via the generator's column bits.

        A data bit feeds every parity bit whose generator entry is 1:
        with the good matrix that is 1 P element plus however many Q
        rows the column's bit-matrix lights up -- the dense-update cost
        that rules Cauchy RS out for small-write workloads.
        """
        self.check_stripe(buf)
        if not 0 <= col < self.k:
            raise IndexError(f"update targets data columns only, got {col}")
        delta = np.bitwise_xor(buf[col, row], new_element)
        buf[col, row] = new_element
        column = self.generator[:, col * self.w + row]
        touched = 0
        for parity_bit in np.nonzero(column)[0]:
            c = self.p_col + int(parity_bit) // self.w
            r = int(parity_bit) % self.w
            np.bitwise_xor(buf[c, r], delta, out=buf[c, r])
            touched += 1
        return touched
