"""Reed-Solomon P+Q RAID-6 (the Linux-kernel reference scheme).

The paper's §I points to the Linux RAID-6 driver as the canonical
"conventional" implementation: ``P`` is plain XOR parity and
``Q = sum g^j d_j`` over GF(2^8) with generator ``g = 2``.  This module
provides that code behind the same :class:`~repro.codes.base.RAID6Code`
interface so the array simulator and the examples can swap it in, and
so the documentation's "why XOR codes" comparison is runnable.

It is *not* an XOR-schedule code: its cost model is field
multiplications, so it participates in none of the XOR-count figures --
exactly as in the paper, where RS serves as motivation rather than as a
measured baseline.

Any strip height works; we default to ``rows = 1`` with the whole strip
as a single element, since RS RAID-6 has no intra-strip structure.
"""

from __future__ import annotations

import numpy as np

from repro.codes.base import RAID6Code
from repro.engine.executor import Columns, checked_columns
from repro.gf.gf256 import GF256
from repro.utils.validation import check_erasures

__all__ = ["ReedSolomonCode"]


class ReedSolomonCode(RAID6Code):
    """GF(2^8) P+Q code with vectorised table arithmetic."""

    name = "reed-solomon"
    p_is_row_parity = True

    def __init__(self, k: int, *, element_size: int = 8, rows: int = 1) -> None:
        if not 2 <= k <= 255:
            raise ValueError(f"reed-solomon: k must be in [2, 255], got {k}")
        self._rows = int(rows)
        if self._rows <= 0:
            raise ValueError(f"rows must be positive, got {rows}")
        super().__init__(k, element_size=element_size)
        self.gf = GF256()
        # Q-parity coefficients g^j, one per data column.
        self._coeff = np.array([self.gf.gen_pow(j) for j in range(self.k)], dtype=np.uint8)

    @property
    def rows(self) -> int:
        return self._rows

    def with_k(self, new_k: int):
        """Same strip geometry, different ``k``.

        Note: unlike the XOR array codes, RS parity *changes* when a
        column is appended only if that column is non-zero; a zero
        column contributes nothing to P or Q, so growth is free here
        too.
        """
        return type(self)(new_k, element_size=self.element_size, rows=self._rows)

    # -- byte views -----------------------------------------------------------

    @staticmethod
    def _bytes(strip: np.ndarray) -> np.ndarray:
        """View a strip as bytes, in its own shape: ``(rows, words)`` as
        ``(rows, 8 * words)``, and a byte column as it is.  A view, never
        a copy, so a decode writes where the strip lives whatever its
        strides (a batch column ``[rows, n, ...]`` is not contiguous);
        NumPy raises :class:`ValueError` for a wider dtype whose last
        axis is not contiguous."""
        return strip.view(np.uint8)

    # -- coding ------------------------------------------------------------------

    def encode(self, buf: np.ndarray) -> np.ndarray:
        self.check_stripe(buf)
        pb = self._bytes(buf[self.p_col])
        qb = self._bytes(buf[self.q_col])
        pb[:] = 0
        qb[:] = 0
        for j in range(self.k):
            db = self._bytes(buf[j])
            np.bitwise_xor(pb, db, out=pb)
            np.bitwise_xor(qb, self._bytes(self.gf.mul_strip(self._coeff[j], buf[j])), out=qb)
        return buf

    def decode(self, buf: np.ndarray | Columns, erasures) -> np.ndarray | Columns:
        """Rebuild up to two erased columns of a stripe buffer, or of a
        stripe given as its columns (:meth:`RAID6Code.decode`), in place.
        Over columns, every survivor (:meth:`sources`) must be supplied,
        and every erased column writable."""
        ers = check_erasures(erasures, self.n_cols)
        if isinstance(buf, np.ndarray):
            stripe = self.check_stripe(buf)
        else:
            stripe = checked_columns(
                buf, self.total_cols, self.rows, reads=self.sources(ers), writes=ers
            )
        data = [c for c in ers if c < self.k]
        parity = [c for c in ers if c >= self.k]

        if len(data) == 2:
            self._decode_two_data(stripe, data[0], data[1])
        elif len(data) == 1:
            if self.p_col in parity:
                self._decode_one_data_with_q(stripe, data[0])
            else:
                self._decode_one_data_with_p(stripe, data[0])
        if parity:
            self._reencode_parity(stripe, parity)
        return buf

    def sources(self, erasures) -> tuple[int, ...]:
        """The columns each branch of :meth:`decode` reads: the
        surviving data columns, and P, Q or both for the lost ones --
        Q only where P is lost too (or a second data column), so a read
        around one lost data column never fetches Q."""
        ers = check_erasures(erasures, self.n_cols)
        if not ers:
            return ()
        lost = [c for c in ers if c < self.k]
        read = [c for c in range(self.k) if c not in ers]
        if len(lost) == 2:
            read += [self.p_col, self.q_col]
        elif lost:
            read.append(self.q_col if self.p_col in ers else self.p_col)
        return tuple(read)

    def _reencode_parity(self, buf: np.ndarray, parity: list[int]) -> None:
        if self.p_col in parity:
            pb = self._bytes(buf[self.p_col])
            pb[:] = 0
            for j in range(self.k):
                np.bitwise_xor(pb, self._bytes(buf[j]), out=pb)
        if self.q_col in parity:
            qb = self._bytes(buf[self.q_col])
            qb[:] = 0
            for j in range(self.k):
                np.bitwise_xor(
                    qb, self._bytes(self.gf.mul_strip(self._coeff[j], buf[j])), out=qb
                )

    def _syndrome_p(self, buf: np.ndarray, skip: set[int]) -> np.ndarray:
        s = self._bytes(buf[self.p_col]).copy()
        for j in range(self.k):
            if j not in skip:
                np.bitwise_xor(s, self._bytes(buf[j]), out=s)
        return s

    def _syndrome_q(self, buf: np.ndarray, skip: set[int]) -> np.ndarray:
        s = self._bytes(buf[self.q_col]).copy()
        for j in range(self.k):
            if j not in skip:
                np.bitwise_xor(
                    s, self._bytes(self.gf.mul_strip(self._coeff[j], buf[j])), out=s
                )
        return s

    def _decode_one_data_with_p(self, buf: np.ndarray, col: int) -> None:
        """Missing data strip from P (plain XOR)."""
        self._bytes(buf[col])[:] = self._syndrome_p(buf, {col})

    def _decode_one_data_with_q(self, buf: np.ndarray, col: int) -> None:
        """Missing data strip from Q: ``d = S_q / g^col``."""
        s = self._syndrome_q(buf, {col})
        inv = self.gf.inverse(self._coeff[col])
        self._bytes(buf[col])[:] = self._bytes(self.gf.mul_strip(int(inv), s))

    def _decode_two_data(self, buf: np.ndarray, a: int, b: int) -> None:
        """Two missing data strips from P and Q.

        Solving ``da ^ db = Sp`` and ``ga*da ^ gb*db = Sq`` gives
        ``da = (Sq ^ gb*Sp) / (ga ^ gb)`` -- the standard RAID-6
        double-failure formula, vectorised over the whole strip.
        """
        sp = self._syndrome_p(buf, {a, b})
        sq = self._syndrome_q(buf, {a, b})
        ga, gb = int(self._coeff[a]), int(self._coeff[b])
        denom_inv = int(self.gf.inverse(ga ^ gb))
        num = sq ^ self._bytes(self.gf.mul_strip(gb, sp.view(np.uint8)))
        da = self._bytes(self.gf.mul_strip(denom_inv, num.view(np.uint8)))
        self._bytes(buf[a])[:] = da
        self._bytes(buf[b])[:] = sp ^ da

    # -- small writes ----------------------------------------------------------------

    def update(self, buf: np.ndarray, col: int, row: int, new_element: np.ndarray) -> int:
        """Delta small-write: RS RAID-6 also attains 2 parity updates."""
        self.check_stripe(buf)
        if not 0 <= col < self.k:
            raise IndexError(f"update targets data columns only, got {col}")
        delta = np.bitwise_xor(buf[col, row], new_element)
        buf[col, row] = new_element
        np.bitwise_xor(buf[self.p_col, row], delta, out=buf[self.p_col, row])
        qd = self.gf.mul_strip(int(self._coeff[col]), delta)
        np.bitwise_xor(buf[self.q_col, row], qd, out=buf[self.q_col, row])
        return 2
