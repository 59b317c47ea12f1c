"""RDP -- Row-Diagonal Parity (Corbett et al., FAST'04) baseline.

RDP codewords are ``(p-1) x (p+1)`` arrays (plus our Q column makes
``p+1`` logical positions): ``k <= p-1`` data columns (phantoms zero),
the row-parity column P, and the diagonal-parity column Q.  Diagonals
are defined over data *and P* at logical positions ``0..p-1`` (P sits at
position ``p-1``): diagonal ``d`` collects cells with
``row + position = d (mod p)``; diagonal ``p-1`` is never stored
("missing diagonal"), which is what makes the construction work.

Because P participates in the diagonals there is no EVENODD-style
adjuster: encoding costs ``(p-1)(k-1) + k(p-2)`` XORs, which meets the
``k-1``-per-bit bound exactly at ``k = p-1`` and degrades as ``k``
shrinks -- the scalability weakness the paper's Fig. 6/8 highlight.

Decoding two data columns uses the same two-chain zig-zag as EVENODD
(diagonal syndromes here include the surviving P cell).  A data column
plus P is recovered by substituting the P definition into the diagonal
equations, producing a single chain through the data column, after
which P is re-encoded.
"""

from __future__ import annotations

import numpy as np

from repro.codes.base import XorScheduleCode
from repro.engine.ops import Schedule
from repro.utils.modular import Mod
from repro.utils.primes import next_prime
from repro.utils.validation import check_prime_p, check_k, check_erasures

__all__ = ["RDPCode"]


class RDPCode(XorScheduleCode):
    """RDP RAID-6 code with schedule-based encode/decode."""

    name = "rdp"
    p_is_row_parity = True

    def __init__(
        self, k: int, *, p: int | None = None, element_size: int = 8, execution: str = "kernel"
    ) -> None:
        self.p = check_prime_p(p if p is not None else next_prime(k + 1))
        check_k(k, self.p - 1, code="rdp")
        super().__init__(k, element_size=element_size, execution=execution)
        self.mod = Mod(self.p)

    @property
    def rows(self) -> int:
        return self.p - 1

    def with_k(self, new_k: int):
        """Same ``p``, different ``k <= p-1``."""
        return type(self)(
            new_k, p=self.p, element_size=self.element_size, execution=self.execution
        )

    # -- structure helpers --------------------------------------------------

    def _diag_members(self, d: int, *, exclude: set[int] = frozenset()) -> list[tuple[int, int]]:
        """Real cells ``(col, row)`` of diagonal ``d`` over data + P.

        ``exclude`` lists *data* columns to omit; pass ``self.p_col`` in
        it to omit the P member.  P sits at logical position ``p-1``.
        """
        p, k = self.p, self.k
        out = []
        for j in range(k):
            if j in exclude:
                continue
            i = self.mod(d - j)
            if i != p - 1:
                out.append((j, i))
        if self.p_col not in exclude:
            i = self.mod(d + 1)  # d - (p-1) mod p
            if i != p - 1:
                out.append((self.p_col, i))
        return out

    # -- encoding --------------------------------------------------------------

    def build_encode_schedule(self) -> Schedule:
        p, k = self.p, self.k
        sched = Schedule(self.total_cols, self.rows)
        for i in range(p - 1):
            for j in range(k):
                sched.xor_into((self.p_col, i), (j, i))
        for d in range(p - 1):
            for cell in self._diag_members(d):
                sched.xor_into((self.q_col, d), cell)
        return sched

    # -- decoding ----------------------------------------------------------------

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
        self._decode_data_and_p(sched, data[0])
        return sched

    def _reencode_parity(self, sched: Schedule, parity: tuple[int, ...]) -> Schedule:
        p, k = self.p, self.k
        if 0 in parity:
            for i in range(p - 1):
                for j in range(k):
                    sched.xor_into((self.p_col, i), (j, i))
        if 1 in parity:
            for d in range(p - 1):
                for cell in self._diag_members(d):
                    sched.xor_into((self.q_col, d), cell)
        return sched

    def _decode_one_data_by_rows(self, sched: Schedule, col: int) -> Schedule:
        for i in range(self.p - 1):
            for j in range(self.k):
                if j != col:
                    sched.xor_into((col, i), (j, i))
            sched.xor_into((col, i), (self.p_col, i))
        return sched

    def _decode_two_data(self, sched: Schedule, l: int, r: int) -> Schedule:
        """Two-chain zig-zag, as in EVENODD but adjuster-free."""
        p, mod = self.p, self.mod
        erased = {l, r}
        delta = mod(r - l)

        steps: list[tuple[str, int, tuple[int, int], tuple[int, int] | None]] = []
        x = mod(r - 1 - l)
        steps.append(("diag", mod(r - 1), (l, x), None))
        while True:
            steps.append(("row", x, (r, x), (l, x)))
            if mod(x + r) == p - 1:
                break
            nxt = mod(x + delta)
            steps.append(("diag", mod(x + r), (l, nxt), (r, x)))
            x = nxt
        if l != 0:
            y = mod(l - 1 - r)
            steps.append(("diag", mod(l - 1), (r, y), None))
            while True:
                steps.append(("row", y, (l, y), (r, y)))
                if mod(y + l) == p - 1:
                    break
                nxt = mod(y - delta)
                steps.append(("diag", mod(y + l), (r, nxt), (l, y)))
                y = nxt

        for kind, idx, home, _feeder in steps:
            if kind == "row":
                sched.copy_cell(home, (self.p_col, idx))
                for j in range(self.k):
                    if j not in erased:
                        sched.accumulate(home, (j, idx))
            else:
                sched.copy_cell(home, (self.q_col, idx))
                for cell in self._diag_members(idx, exclude=erased):
                    sched.accumulate(home, cell)
        for _kind, _idx, home, feeder in steps:
            if feeder is not None:
                sched.accumulate(home, feeder)
        return sched

    def update(self, buf: np.ndarray, col: int, row: int, new_element: np.ndarray) -> int:
        """Delta small-write.

        Touches ``P_row``, the element's own diagonal Q element (unless
        it lies on the missing diagonal) and -- because the changed P
        element itself sits on a diagonal -- the Q element of diagonal
        ``row - 1`` (unless *that* P cell is on the missing diagonal,
        i.e. ``row = 0``).  This third write is what pushes RDP's
        average update complexity to ~3 (Table I).
        """
        self.check_stripe(buf)
        if not 0 <= col < self.k:
            raise IndexError(f"update targets data columns only, got {col}")
        p, mod = self.p, self.mod
        delta = np.bitwise_xor(buf[col, row], new_element)
        buf[col, row] = new_element
        touched = [(self.p_col, row)]
        d_own = mod(row + col)
        if d_own != p - 1:
            touched.append((self.q_col, d_own))
        d_p = mod(row - 1)  # diagonal through the P cell of this row
        if d_p != p - 1:
            touched.append((self.q_col, d_p))
        for c, r in touched:
            np.bitwise_xor(buf[c, r], delta, out=buf[c, r])
        return len(touched)

    def _decode_data_and_p(self, sched: Schedule, col: int) -> Schedule:
        """Recover data column ``col`` and P from Q.

        Substituting ``P_i = xor_j d(i, j)`` into diagonal ``d`` turns
        each diagonal equation into a relation between *two* cells of
        column ``col``: its native member at row ``<d-col>`` and its
        contribution to the P member at row ``<d+1>``.  The relation
        graph is a single path entered at the diagonal whose native
        member is imaginary (``d = <col-1>``) and terminated at the
        diagonal with no P member (``d = p-2``), so peeling recovers
        every element with one constraint each.  P is re-encoded last.
        """
        p, k, mod = self.p, self.k, self.mod

        def members_of(d: int) -> set[int]:
            """Rows of column ``col`` in the substituted equation of diag d."""
            return {i for i in (mod(d - col), mod(d + 1)) if i != p - 1}

        # Peel: repeatedly pick an unused diagonal whose substituted
        # equation has exactly one unresolved column-`col` row.
        resolved: set[int] = set()
        unused = set(range(p - 1))
        order: list[int] = []
        while len(resolved) < p - 1:
            d = next(
                (c for c in sorted(unused) if len(members_of(c) - resolved) == 1),
                None,
            )
            if d is None:
                raise AssertionError("RDP data+P peeling stalled")
            unused.remove(d)
            order.append(d)
            resolved |= members_of(d)

        # Emit: for each step, target <- Q_d ^ (other columns' diagonal
        # members) ^ (row <d+1> data cells, i.e. the substituted P) ^
        # (already recovered col cells involved).
        done_rows: set[int] = set()
        for d in order:
            i_native = mod(d - col)
            i_p = mod(d + 1)
            members = [i for i in {i_native, i_p} if i != p - 1]
            unknown = [i for i in members if i not in done_rows]
            assert len(unknown) == 1, (d, members, done_rows)
            x = unknown[0]
            target = (col, x)
            sched.copy_cell(target, (self.q_col, d))
            # Other columns' native diagonal members.
            for (j, i) in self._diag_members(d, exclude={col, self.p_col}):
                sched.accumulate(target, (j, i))
            # Substituted P member: row <d+1> over all data columns.
            if i_p != p - 1:
                for j in range(k):
                    if j != col:
                        sched.accumulate(target, (j, i_p))
            # Already-recovered cells of this column in the equation.
            for i in members:
                if i != x:
                    sched.accumulate(target, (col, i))
            done_rows.add(x)
        return self._reencode_parity(sched, (0,))
