"""Tests for the Reed-Solomon P+Q reference code."""

import itertools

import numpy as np
import pytest

from repro.codes import ReedSolomonCode


@pytest.fixture
def code():
    return ReedSolomonCode(5, rows=3, element_size=16)


def encoded(code, random_words):
    buf = code.alloc_stripe()
    buf[: code.k] = random_words(buf[: code.k].shape)
    code.encode(buf)
    return buf


class TestEncoding:
    def test_p_is_xor_parity(self, code, random_words):
        buf = encoded(code, random_words)
        expect = np.bitwise_xor.reduce(buf[: code.k], axis=0)
        assert np.array_equal(buf[code.p_col], expect)

    def test_q_definition(self, code, random_words):
        buf = encoded(code, random_words)
        gf = code.gf
        acc = np.zeros_like(buf[0].view(np.uint8).reshape(-1))
        for j in range(code.k):
            term = gf.mul(buf[j].view(np.uint8).reshape(-1), gf.gen_pow(j))
            acc ^= term
        assert np.array_equal(buf[code.q_col].view(np.uint8).reshape(-1), acc)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            ReedSolomonCode(1)
        with pytest.raises(ValueError):
            ReedSolomonCode(256)
        ReedSolomonCode(255)  # the GF(2^8) limit

    def test_rows_validation(self):
        with pytest.raises(ValueError):
            ReedSolomonCode(4, rows=0)


class TestDecoding:
    def test_all_patterns(self, code, random_words, rng):
        ref = encoded(code, random_words)
        pats = [(c,) for c in range(code.n_cols)] + list(
            itertools.combinations(range(code.n_cols), 2)
        )
        for pat in pats:
            dmg = ref.copy()
            for c in pat:
                dmg[c] = rng.integers(0, 2**64, dmg[c].shape, dtype=np.uint64)
            code.decode(dmg, list(pat))
            assert np.array_equal(dmg, ref), pat

    def test_large_k(self, random_words, rng):
        code = ReedSolomonCode(20, rows=2, element_size=8)
        ref = encoded(code, random_words)
        for pat in [(0, 19), (7, 13), (19, 20), (20, 21), (5,)]:
            dmg = ref.copy()
            for c in pat:
                dmg[c] = rng.integers(0, 2**64, dmg[c].shape, dtype=np.uint64)
            code.decode(dmg, list(pat))
            assert np.array_equal(dmg, ref), pat

    def test_empty_pattern(self, code, random_words):
        ref = encoded(code, random_words)
        work = ref.copy()
        code.decode(work, [])
        assert np.array_equal(work, ref)


class TestDecodeOverColumns:
    """A column the decode writes need not be contiguous: a batch's
    column ``[rows, n, ...]`` is the transposed view of a stripe-major
    array, and the decode must write where it lives (a reshape of such a
    view is a copy, which once left the erased column unwritten)."""

    @pytest.mark.parametrize("rows", [1, 2])
    def test_a_batch_of_transposed_columns_decodes_in_place(self, random_words, rows):
        code = ReedSolomonCode(4, rows=rows, element_size=16)
        stripes = [encoded(code, random_words) for _ in range(3)]
        for pattern in [(1,), (0, 1), (1, code.p_col), (1, code.q_col), (code.p_col, code.q_col)]:
            columns = []
            for c in range(code.n_cols):
                stacked = np.stack([stripe[c].view(np.uint8) for stripe in stripes])
                if c in pattern:
                    stacked[:] = 0
                else:
                    stacked.flags.writeable = False
                columns.append(stacked.transpose(1, 0, 2))
            assert columns[0].flags.c_contiguous == (rows == 1)
            code.decode(columns, pattern)
            for c in pattern:
                np.testing.assert_array_equal(
                    columns[c].transpose(1, 0, 2),
                    np.stack([stripe[c].view(np.uint8) for stripe in stripes]),
                    err_msg=f"rows={rows} decode{pattern}, column {c}",
                )


class TestUpdate:
    def test_always_two_parity_writes(self, code, random_words):
        buf = encoded(code, random_words)
        for col in range(code.k):
            assert code.update(buf, col, 1, random_words(buf[col, 1].shape)) == 2
        assert code.verify(buf)

    def test_parity_target_rejected(self, code, random_words):
        buf = encoded(code, random_words)
        with pytest.raises(IndexError):
            code.update(buf, code.q_col, 0, random_words(buf[0, 0].shape))
