"""Tests for bit-matrix -> schedule lowering."""

import numpy as np
import pytest

from repro.bitmatrix.builder import liberation_bitmatrix
from repro.bitmatrix.schedule import dumb_schedule, schedule_from_rows, smart_schedule
from repro.engine.executor import execute_bits


def reference_encode(generator, w, k, bits):
    """Parity via direct GF(2) matvec on the data bits."""
    data = np.concatenate([bits[j] for j in range(k)])
    parity = (generator.astype(np.int64) @ data.astype(np.int64)) % 2
    out = bits.copy()
    out[k] = parity[:w]
    out[k + 1] = parity[w:]
    return out.astype(np.uint8)


class TestDumbSchedule:
    @pytest.mark.parametrize("p,k", [(3, 2), (5, 3), (5, 5), (7, 6)])
    def test_matches_matrix_semantics(self, p, k, random_bits):
        g = liberation_bitmatrix(p, k)
        bits = random_bits(k + 2, p)
        expect = reference_encode(g, p, k, bits)
        got = bits.copy()
        execute_bits(dumb_schedule(g, p, k), got)
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("p,k", [(5, 5), (7, 4), (11, 11), (31, 23)])
    def test_xor_count_is_ones_minus_outputs(self, p, k):
        g = liberation_bitmatrix(p, k)
        sched = dumb_schedule(g, p, k)
        assert sched.n_xors == int(g.sum()) - 2 * p
        # Closed form: the Table I 'original' encoding count.
        assert sched.n_xors == 2 * k * p + (k - 1) - 2 * p

    def test_total_cols_widens_schedule(self):
        g = liberation_bitmatrix(5, 3)
        assert dumb_schedule(g, 5, 3).cols == 5
        assert dumb_schedule(g, 5, 3, total_cols=7).cols == 7


class TestSmartSchedule:
    @pytest.mark.parametrize("p,k", [(5, 5), (7, 4), (11, 8)])
    def test_matches_matrix_semantics(self, p, k, random_bits):
        g = liberation_bitmatrix(p, k)
        bits = random_bits(k + 2, p)
        expect = reference_encode(g, p, k, bits)
        got = bits.copy()
        execute_bits(smart_schedule(g, p, k), got)
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("p,k", [(5, 5), (7, 7), (11, 11)])
    def test_never_worse_than_dumb(self, p, k):
        g = liberation_bitmatrix(p, k)
        assert smart_schedule(g, p, k).n_xors <= dumb_schedule(g, p, k).n_xors

    def test_derivation_pays_off_on_similar_rows(self, random_bits):
        """Rows differing in one position should chain via copies."""
        rows = np.ones((4, 8), dtype=np.uint8)
        rows[1, 0] = 0
        rows[2, 1] = 0
        rows[3, 2] = 0
        dst = [(1, i) for i in range(4)]
        src = [(0, i) for i in range(8)]
        sched = schedule_from_rows(rows, dst, src, cols=2, n_rows=8, smart=True)
        # Prim starts from the cheapest row (7 ones: 6 XORs), then
        # derives the all-ones row for 1 XOR and the two others from it
        # for 1 XOR each.
        assert sched.n_xors == 6 + 1 + 1 + 1
        dumb = schedule_from_rows(rows, dst, src, cols=2, n_rows=8, smart=False)
        assert dumb.n_xors == 7 + 6 * 3

    def test_smart_correct_on_derived_rows(self, random_bits):
        rows = np.ones((4, 8), dtype=np.uint8)
        rows[1, 0] = 0
        rows[2, 1] = 0
        rows[3, 2] = 0
        dst = [(1, i) for i in range(4)]
        src = [(0, i) for i in range(8)]
        bits = random_bits(2, 8)
        expect = bits.copy()
        for i in range(4):
            expect[1, i] = int((rows[i] & bits[0]).sum() % 2)
        got = bits.copy()
        execute_bits(
            schedule_from_rows(rows, dst, src, cols=2, n_rows=8, smart=True), got
        )
        assert np.array_equal(got, expect)


class TestScheduleFromRowsValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            schedule_from_rows(
                np.ones((2, 3), dtype=np.uint8),
                [(0, 0)],
                [(1, 0), (1, 1), (1, 2)],
                cols=2,
                n_rows=3,
                smart=False,
            )

    def test_empty_row_rejected(self):
        rows = np.zeros((1, 2), dtype=np.uint8)
        with pytest.raises(ValueError, match="empty source row"):
            schedule_from_rows(
                rows, [(0, 0)], [(1, 0), (1, 1)], cols=2, n_rows=2, smart=False
            )
