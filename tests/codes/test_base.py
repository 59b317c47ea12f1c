"""Tests for the RAID6Code / XorScheduleCode interface contracts."""

import numpy as np
import pytest

from repro.codes import LiberationOptimal, LiberationOriginal, make_code


class TestGeometryProperties:
    def test_column_roles(self):
        code = LiberationOptimal(6, p=7)
        assert code.n_cols == 8
        assert code.p_col == 6 and code.q_col == 7
        assert code.total_cols == code.n_cols + code.n_scratch

    def test_sizes(self):
        code = LiberationOptimal(4, p=5, element_size=4096)
        assert code.strip_bytes == 5 * 4096
        assert code.data_bytes == 4 * 5 * 4096

    def test_alloc_and_check(self):
        code = LiberationOptimal(4, p=5, element_size=16)
        buf = code.alloc_stripe()
        assert buf.shape == (code.total_cols, 5, 2)
        code.check_stripe(buf)
        with pytest.raises(ValueError):
            code.check_stripe(buf[:-1])


class TestExecutionModes:
    @pytest.mark.parametrize("mode", ["kernel", "streaming"])
    def test_modes_agree(self, mode, random_words):
        ref_code = LiberationOptimal(5, p=5, element_size=16)
        code = LiberationOptimal(5, p=5, element_size=16, execution=mode)
        buf = ref_code.alloc_stripe()
        buf[:5] = random_words(buf[:5].shape)
        ref = buf.copy()
        ref_code.encode(ref)
        code.encode(buf)
        assert np.array_equal(buf[:7], ref[:7])

    def test_invalid_mode_rejected(self):
        for mode in ("warp", "fused"):
            with pytest.raises(ValueError):
                LiberationOptimal(5, p=5, execution=mode)


class TestVerify:
    def test_fresh_encode_verifies(self, random_words):
        code = LiberationOptimal(4, p=5, element_size=16)
        buf = code.alloc_stripe()
        buf[:4] = random_words(buf[:4].shape)
        code.encode(buf)
        assert code.verify(buf)

    def test_corruption_detected(self, random_words):
        code = LiberationOptimal(4, p=5, element_size=16)
        buf = code.alloc_stripe()
        buf[:4] = random_words(buf[:4].shape)
        code.encode(buf)
        buf[2, 1, 0] ^= np.uint64(1)
        assert not code.verify(buf)


class TestDecodePlanCaching:
    def test_optimal_caches(self, random_words):
        code = LiberationOptimal(4, p=5, element_size=16)
        buf = code.alloc_stripe()
        buf[:4] = random_words(buf[:4].shape)
        code.encode(buf)
        code.decode(buf, [0, 1])
        assert (0, 1) in code._decode_plans

    def test_original_does_not_cache(self, random_words):
        code = LiberationOriginal(4, p=5, element_size=16)
        buf = code.alloc_stripe()
        buf[:4] = random_words(buf[:4].shape)
        code.encode(buf)
        code.decode(buf, [0, 1])
        assert code._decode_plans == {}

    def test_empty_erasures_noop(self, random_words):
        code = LiberationOptimal(4, p=5, element_size=16)
        buf = code.alloc_stripe()
        buf[:4] = random_words(buf[:4].shape)
        code.encode(buf)
        ref = buf.copy()
        code.decode(buf, [])
        assert np.array_equal(buf, ref)


class TestComplexityAccessors:
    def test_encoding_complexity(self):
        code = LiberationOptimal(5, p=5)
        assert code.encoding_xors() == 40
        assert code.encoding_complexity() == pytest.approx(4.0)

    def test_decoding_complexity(self):
        code = LiberationOptimal(5, p=5)
        assert code.decoding_xors([1, 3]) == 41
        assert code.decoding_complexity([1, 3]) == pytest.approx(4.1)
        assert code.decoding_complexity([]) == 0.0


class TestGenericUpdateFallback:
    def test_reed_solomon_generic_consistency(self, random_words):
        """RS overrides update; exercise the generic fallback through a
        stub subclass that doesn't."""
        from repro.codes.base import RAID6Code

        class Stub(make_code("reed-solomon", 3, rows=2, element_size=8).__class__):
            def update(self, buf, col, row, new_element):
                return RAID6Code.update(self, buf, col, row, new_element)

        code = Stub(3, rows=2, element_size=8)
        buf = code.alloc_stripe()
        buf[:3] = random_words(buf[:3].shape)
        code.encode(buf)
        n = code.update(buf, 0, 1, random_words(buf[0, 1].shape))
        assert 1 <= n <= 2 * code.rows
        assert code.verify(buf)
