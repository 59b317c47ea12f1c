"""Tests for the schedule data model."""

import pytest

from repro.engine.ops import Schedule, XorOp


class TestXorOp:
    def test_cost_accounting(self):
        assert XorOp(0, 0, 1, 1, copy=True).xor_cost == 0
        assert XorOp(0, 0, 1, 1, copy=False).xor_cost == 1

    def test_cell_accessors(self):
        op = XorOp(2, 3, 4, 5)
        assert op.dst == (2, 3)
        assert op.src == (4, 5)

    def test_str_labels_cols_and_rows(self):
        # The rendering must agree with the constructor's
        # (dst_col, dst_row, src_col, src_row) order; an earlier
        # unlabelled form printed row,col and was read as col,row.
        assert str(XorOp(2, 3, 4, 5, copy=True)) == "b[c2,r3] <- b[c4,r5]"
        assert str(XorOp(2, 3, 4, 5, copy=False)) == "b[c2,r3] ^= b[c4,r5]"

    def test_str_roundtrips_cell_accessors(self):
        op = XorOp(7, 1, 0, 6)
        rendered = str(op)
        assert f"c{op.dst[0]},r{op.dst[1]}" in rendered.split("^=")[0]
        assert f"c{op.src[0]},r{op.src[1]}" in rendered.split("^=")[1]


class TestScheduleConstruction:
    def test_empty(self):
        s = Schedule(4, 3)
        assert len(s) == 0 and s.n_xors == 0 and s.n_copies == 0

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            Schedule(0, 3)

    def test_bounds_checked(self):
        s = Schedule(2, 2)
        with pytest.raises(IndexError):
            s.copy_cell((2, 0), (0, 0))
        with pytest.raises(IndexError):
            s.accumulate((0, 0), (0, 2))

    def test_xor_into_first_touch_is_copy(self):
        s = Schedule(3, 3)
        s.xor_into((2, 0), (0, 0))
        s.xor_into((2, 0), (1, 0))
        assert s.n_copies == 1 and s.n_xors == 1
        assert s.ops[0].copy and not s.ops[1].copy

    def test_mark_touched_forces_accumulate(self):
        s = Schedule(3, 3)
        s.mark_touched((2, 0))
        s.xor_into((2, 0), (0, 0))
        assert s.n_xors == 1 and s.n_copies == 0

    def test_touched_tracking(self):
        s = Schedule(3, 3)
        assert not s.touched((1, 1))
        s.copy_cell((1, 1), (0, 0))
        assert s.touched((1, 1))


class TestPaperAccounting:
    def test_worked_example_costs(self):
        # b[0,5] <- b[0,1] ^ b[0,2]; b[4,6] <- b[0,5]  == 1 XOR
        s = Schedule(7, 5)
        s.copy_cell((5, 0), (1, 0))
        s.accumulate((5, 0), (2, 0))
        s.copy_cell((6, 4), (5, 0))
        assert s.n_xors == 1

    def test_five_term_chain_costs_four(self):
        # b[4,5] <- b[4,0] ^ ... ^ b[4,4]  == 4 XORs
        s = Schedule(7, 5)
        for j in range(5):
            s.xor_into((5, 4), (j, 4))
        assert s.n_xors == 4


class TestScheduleCombinators:
    def test_extend(self):
        a = Schedule(3, 3)
        a.copy_cell((2, 0), (0, 0))
        b = Schedule(3, 3)
        b.accumulate((2, 0), (1, 0))
        a.extend(b)
        assert len(a) == 2 and a.n_xors == 1
        # extend transfers touched state
        a.xor_into((2, 0), (1, 1))
        assert a.ops[-1].copy is False

    def test_extend_shape_mismatch(self):
        with pytest.raises(ValueError):
            Schedule(3, 3).extend(Schedule(4, 3))

    def test_destinations(self):
        s = Schedule(3, 2)
        s.copy_cell((2, 0), (0, 0))
        s.copy_cell((2, 1), (0, 1))
        assert s.destinations() == {(2, 0), (2, 1)}

    def test_to_array(self):
        s = Schedule(3, 2)
        s.copy_cell((2, 1), (0, 0))
        s.accumulate((2, 1), (1, 0))
        arr = s.to_array()
        assert arr.shape == (2, 5)
        assert arr[0].tolist() == [2, 1, 0, 0, 1]
        assert arr[1].tolist() == [2, 1, 1, 0, 0]

    def test_to_array_empty(self):
        assert Schedule(2, 2).to_array().shape == (0, 5)

    def test_iteration_and_indexing(self):
        s = Schedule(3, 2)
        s.copy_cell((2, 0), (1, 0))
        assert list(s)[0] is s[0]
        assert repr(s).startswith("Schedule(")
