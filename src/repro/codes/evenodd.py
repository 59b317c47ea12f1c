"""EVENODD code (Blaum, Brady, Bruck & Menon 1995) -- complexity baseline.

EVENODD codewords are ``(p-1) x (p+2)`` arrays over an odd prime ``p``
(``k <= p`` data columns, the rest phantom zeros), with an *imaginary*
all-zero row ``p-1``:

* ``P_i`` -- plain row parity.
* ``Q_d`` (``d = 0..p-2``) -- the parity of diagonal
  ``{(r, c) : r + c = d (mod p)}`` XOR the *adjuster* ``S``, where ``S``
  is the parity of the missing diagonal ``p-1``.

The encoder stages ``S`` in the ``Q_0`` cell and fans it out to the
other Q cells with free copies, giving the classic
``k - 1/2`` XORs per parity bit.  The decoder for two data columns
stores diagonal syndromes in the *left* erased column and row syndromes
in the *right* one, then zig-zags in place along the
``delta = r - l`` chain starting from the diagonal through the right
column's imaginary cell; the adjuster is staged in the scratch column.

This implementation exists for the paper's complexity comparisons
(Figs. 5-8): the paper does not benchmark EVENODD throughput (no
official implementation exists -- it is patented), and neither do we.
"""

from __future__ import annotations

import numpy as np

from repro.codes.base import XorScheduleCode
from repro.engine.ops import Schedule
from repro.utils.modular import Mod
from repro.utils.primes import prime_for_k
from repro.utils.validation import check_prime_p, check_k, check_erasures

__all__ = ["EvenOddCode"]


class EvenOddCode(XorScheduleCode):
    """EVENODD RAID-6 code with schedule-based encode/decode."""

    name = "evenodd"
    n_scratch = 1  # decode stages the adjuster S here
    p_is_row_parity = True

    def __init__(
        self, k: int, *, p: int | None = None, element_size: int = 8, execution: str = "kernel"
    ) -> None:
        self.p = check_prime_p(p if p is not None else prime_for_k(k))
        check_k(k, self.p, code="evenodd")
        super().__init__(k, element_size=element_size, execution=execution)
        self.mod = Mod(self.p)

    @property
    def rows(self) -> int:
        return self.p - 1

    def with_k(self, new_k: int):
        """Same ``p``, different ``k`` (phantom-column semantics)."""
        return type(self)(
            new_k, p=self.p, element_size=self.element_size, execution=self.execution
        )

    # -- structure helpers ----------------------------------------------

    def _diag_cells(self, d: int, *, exclude: set[int] = frozenset()) -> list[tuple[int, int]]:
        """Real data cells ``(col, row)`` of diagonal ``d`` (row+col = d)."""
        out = []
        for j in range(self.k):
            if j in exclude:
                continue
            i = self.mod(d - j)
            if i != self.p - 1:  # imaginary row
                out.append((j, i))
        return out

    def _s_cells(self) -> list[tuple[int, int]]:
        """Cells of the adjuster diagonal ``p-1``."""
        return self._diag_cells(self.p - 1)

    # -- encoding -----------------------------------------------------------

    def build_encode_schedule(self) -> Schedule:
        p, k, mod = self.p, self.k, self.mod
        sched = Schedule(self.total_cols, self.rows)
        # Row parities.
        for i in range(p - 1):
            for j in range(k):
                sched.xor_into((self.p_col, i), (j, i))
        # Adjuster S staged in the Q_0 cell, fanned out by free copies.
        s_cells = self._s_cells()
        if s_cells:
            for cell in s_cells:
                sched.xor_into((self.q_col, 0), cell)
            for d in range(1, p - 1):
                sched.copy_cell((self.q_col, d), (self.q_col, 0))
        # Diagonal parities on top.
        for d in range(p - 1):
            for cell in self._diag_cells(d):
                sched.xor_into((self.q_col, d), cell)
        return sched

    # -- decoding ------------------------------------------------------------

    def build_decode_schedule(self, erasures) -> Schedule:
        ers = check_erasures(erasures, self.n_cols)
        data = [c for c in ers if c < self.k]
        parity = tuple(c - self.k for c in ers if c >= self.k)
        sched = Schedule(self.total_cols, self.rows)
        if not ers:
            return sched
        if not data:
            return self._reencode_parity(sched, parity)
        if len(data) == 2:
            return self._decode_two_data(sched, data[0], data[1])
        if not parity:
            return self._decode_one_data_by_rows(sched, data[0])
        if parity == (1,):
            self._decode_one_data_by_rows(sched, data[0])
            return self._reencode_parity(sched, (1,))
        # data + P: recover the column through the diagonals, then P.
        self._decode_one_data_by_diagonals(sched, data[0])
        return self._reencode_parity(sched, (0,))

    def _reencode_parity(self, sched: Schedule, parity: tuple[int, ...]) -> Schedule:
        p, k = self.p, self.k
        if 0 in parity:
            for i in range(p - 1):
                for j in range(k):
                    sched.xor_into((self.p_col, i), (j, i))
        if 1 in parity:
            s_cells = self._s_cells()
            base = self.q_col
            if s_cells:
                for cell in s_cells:
                    sched.xor_into((base, 0), cell)
                for d in range(1, p - 1):
                    sched.copy_cell((base, d), (base, 0))
            for d in range(p - 1):
                for cell in self._diag_cells(d):
                    sched.xor_into((base, d), cell)
        return sched

    def _decode_one_data_by_rows(self, sched: Schedule, col: int) -> Schedule:
        for i in range(self.p - 1):
            for j in range(self.k):
                if j != col:
                    sched.xor_into((col, i), (j, i))
            sched.xor_into((col, i), (self.p_col, i))
        return sched

    def _decode_one_data_by_diagonals(self, sched: Schedule, col: int) -> Schedule:
        """Recover one data column from Q alone (used when P is dead).

        The adjuster ``S`` is obtained without P: for ``col = 0`` every
        adjuster-diagonal cell survives, so ``S`` is their direct XOR;
        for ``col >= 1`` the diagonal ``col - 1`` runs through the
        column's imaginary cell, so all of its real members survive and
        ``S = Q_{col-1} ^ (its cells)``.  Each remaining live diagonal
        then yields one missing element; the column's cell on the dead
        diagonal (``col >= 1`` only) is recovered last, from ``S``
        itself and the surviving adjuster-diagonal cells.
        """
        p, mod = self.p, self.mod
        scratch = self.n_cols  # first scratch column
        skip_d: int | None = None
        if col == 0:
            for cell in self._s_cells():
                sched.xor_into((scratch, 0), cell)
            if not sched.touched((scratch, 0)):  # k = 1 edge: S is empty
                raise AssertionError("unreachable: k >= 2 guarantees S cells")
        else:
            skip_d = col - 1  # in [0, p-2]: a live diagonal
            sched.copy_cell((scratch, 0), (self.q_col, skip_d))
            for cell in self._diag_cells(skip_d, exclude={col}):
                sched.accumulate((scratch, 0), cell)
        for d in range(p - 1):
            if d == skip_d:
                continue
            target = (col, mod(d - col))
            sched.copy_cell(target, (self.q_col, d))
            sched.accumulate(target, (scratch, 0))
            for cell in self._diag_cells(d, exclude={col}):
                sched.accumulate(target, cell)
        if col >= 1:
            # The cell on the dead diagonal: S ^ its surviving members.
            target = (col, mod(p - 1 - col))
            sched.copy_cell(target, (scratch, 0))
            for cell in self._diag_cells(p - 1, exclude={col}):
                sched.accumulate(target, cell)
        return sched

    def _row_syndrome(self, sched: Schedule, home: tuple[int, int], i: int, erased: set[int]) -> None:
        """``home <- P_i ^ surviving data cells of row i``."""
        sched.copy_cell(home, (self.p_col, i))
        for j in range(self.k):
            if j not in erased:
                sched.accumulate(home, (j, i))

    def _diag_syndrome(
        self, sched: Schedule, home: tuple[int, int], d: int, erased: set[int], scratch: int
    ) -> None:
        """``home <- Q_d ^ S ^ surviving data cells of diagonal d``."""
        sched.copy_cell(home, (self.q_col, d))
        sched.accumulate(home, (scratch, 0))
        for cell in self._diag_cells(d, exclude=erased):
            sched.accumulate(home, cell)

    def _decode_two_data(self, sched: Schedule, l: int, r: int) -> Schedule:
        """Two-chain zig-zag recovery (Blaum et al. §IV).

        The unknown cells and the row/diagonal constraints form (up to)
        two alternating chains, each entered through a diagonal whose
        partner cell lies on the imaginary row and each terminating at
        a cell of the dead diagonal ``p-1``.  Every constraint's
        syndrome is staged directly in the cell it recovers, so the
        retrieval itself is one XOR per recovered element.
        """
        p, mod = self.p, self.mod
        scratch = self.n_cols
        erased = {l, r}
        delta = mod(r - l)

        # Adjuster: S = xor(P) ^ xor(Q), staged once.
        for i in range(p - 1):
            sched.xor_into((scratch, 0), (self.p_col, i))
        for d in range(p - 1):
            sched.accumulate((scratch, 0), (self.q_col, d))

        # Chain walks: list of (kind, index, recovered_cell, feeder_cell).
        steps: list[tuple[str, int, tuple[int, int], tuple[int, int] | None]] = []

        # Chain A: enter through the diagonal whose column-r member is
        # imaginary; diagonals recover l-cells, rows recover r-cells.
        x = mod(r - 1 - l)
        steps.append(("diag", mod(r - 1), (l, x), None))
        while True:
            steps.append(("row", x, (r, x), (l, x)))
            if mod(x + r) == p - 1:
                break  # (x, r) lies on the dead diagonal: chain ends
            nxt = mod(x + delta)
            steps.append(("diag", mod(x + r), (l, nxt), (r, x)))
            x = nxt

        # Chain B (absent for l = 0): enter through the diagonal whose
        # column-l member is imaginary; roles are flipped.
        if l != 0:
            y = mod(l - 1 - r)
            steps.append(("diag", mod(l - 1), (r, y), None))
            while True:
                steps.append(("row", y, (l, y), (r, y)))
                if mod(y + l) == p - 1:
                    break  # (y, l) on the dead diagonal: chain ends
                nxt = mod(y - delta)
                steps.append(("diag", mod(y + l), (r, nxt), (l, y)))
                y = nxt

        # Stage every syndrome at the cell its constraint recovers.
        for kind, idx, home, _feeder in steps:
            if kind == "row":
                self._row_syndrome(sched, home, idx, erased)
            else:
                self._diag_syndrome(sched, home, idx, erased, scratch)
        # Retrieval: fold the previously recovered neighbour into each
        # staged syndrome, in chain order.
        for _kind, _idx, home, feeder in steps:
            if feeder is not None:
                sched.accumulate(home, feeder)
        return sched

    # -- small writes -------------------------------------------------------

    def update(self, buf: np.ndarray, col: int, row: int, new_element: np.ndarray) -> int:
        """Delta small-write.

        Touches ``P_row``, the cell's diagonal Q element (unless the
        cell lies on the imaginary diagonal), and -- when the cell lies
        on the adjuster diagonal -- *every* Q element (S changes), which
        is what drives EVENODD's ~3 average update complexity.
        """
        self.check_stripe(buf)
        if not 0 <= col < self.k:
            raise IndexError(f"update targets data columns only, got {col}")
        mod = self.mod
        delta = np.bitwise_xor(buf[col, row], new_element)
        buf[col, row] = new_element
        touched = [(self.p_col, row)]
        d = mod(row + col)
        if d == self.p - 1:
            touched += [(self.q_col, dd) for dd in range(self.p - 1)]
        else:
            touched.append((self.q_col, d))
        for c, rr in touched:
            np.bitwise_xor(buf[c, rr], delta, out=buf[c, rr])
        return len(touched)
