"""Cross-family behavioural contracts, parametrized over all codes.

Every registered code must: round-trip any <=2-column erasure at the
word level, keep data columns untouched during encode, produce
consistent parity under delta updates, and (for XOR codes) agree
between bit-level and word-level execution.
"""

import itertools

import numpy as np
import pytest

from repro.codes import CODE_FAMILIES, XorScheduleCode, make_code

CONFIGS = [
    ("liberation-optimal", 4, {"p": 5}),
    ("liberation-optimal", 7, {"p": 7}),
    ("liberation-original", 4, {"p": 5}),
    ("liberation-original-dumb", 5, {"p": 7}),
    ("evenodd", 4, {"p": 5}),
    ("evenodd", 6, {"p": 7}),
    ("rdp", 4, {"p": 5}),
    ("rdp", 6, {"p": 7}),
    ("reed-solomon", 4, {"rows": 3}),
    ("reed-solomon", 6, {"rows": 2}),
]


def fresh(name, k, kw, element_size=16):
    return make_code(name, k, element_size=element_size, **kw)


def encoded_stripe(code, random_words):
    buf = code.alloc_stripe()
    buf[: code.k] = random_words(buf[: code.k].shape)
    code.encode(buf)
    return buf


@pytest.mark.parametrize("name,k,kw", CONFIGS, ids=lambda v: str(v))
class TestRoundTrip:
    def test_all_erasure_patterns(self, name, k, kw, random_words, rng):
        code = fresh(name, k, kw)
        ref = encoded_stripe(code, random_words)
        pats = [(c,) for c in range(code.n_cols)] + list(
            itertools.combinations(range(code.n_cols), 2)
        )
        for pat in pats:
            dmg = ref.copy()
            for c in pat:
                dmg[c] = rng.integers(0, 2**64, dmg[c].shape, dtype=np.uint64)
            code.decode(dmg, list(pat))
            assert np.array_equal(dmg[: code.n_cols], ref[: code.n_cols]), pat

    def test_encode_preserves_data(self, name, k, kw, random_words):
        code = fresh(name, k, kw)
        buf = code.alloc_stripe()
        data = random_words(buf[:k].shape)
        buf[:k] = data
        code.encode(buf)
        assert np.array_equal(buf[:k], data)

    def test_encode_deterministic(self, name, k, kw, random_words):
        code = fresh(name, k, kw)
        buf = code.alloc_stripe()
        buf[:k] = random_words(buf[:k].shape)
        a = buf.copy()
        b = buf.copy()
        code.encode(a)
        fresh(name, k, kw).encode(b)
        assert np.array_equal(a[: code.n_cols], b[: code.n_cols])


@pytest.mark.parametrize("name,k,kw", CONFIGS, ids=lambda v: str(v))
class TestUpdates:
    def test_update_matches_reencode(self, name, k, kw, random_words):
        code = fresh(name, k, kw)
        buf = encoded_stripe(code, random_words)
        for col in range(k):
            row = (col * 2) % code.rows
            code.update(buf, col, row, random_words(buf[col, row].shape))
        assert code.verify(buf)

    def test_update_rejects_parity_target(self, name, k, kw, random_words):
        code = fresh(name, k, kw)
        buf = encoded_stripe(code, random_words)
        with pytest.raises(IndexError):
            code.update(buf, code.p_col, 0, random_words(buf[0, 0].shape))

    def test_update_count_within_bounds(self, name, k, kw, random_words):
        code = fresh(name, k, kw)
        buf = encoded_stripe(code, random_words)
        n = code.update(buf, 1, 0, random_words(buf[1, 0].shape))
        assert 2 <= n <= 2 * code.rows


@pytest.mark.parametrize(
    "name,k,kw", [c for c in CONFIGS if c[0] != "reed-solomon"], ids=lambda v: str(v)
)
class TestBitWordAgreement:
    def test_bit_planes_match_word_encode(self, name, k, kw, random_words):
        """Encoding 64 interleaved codewords == encoding each bit plane."""
        code = fresh(name, k, kw, element_size=8)
        assert isinstance(code, XorScheduleCode)
        buf = code.alloc_stripe()
        buf[:k] = random_words(buf[:k].shape)
        word = buf[:, :, 0].copy()
        code.encode(buf)
        for plane in range(0, 64, 17):
            bits = ((word >> np.uint64(plane)) & np.uint64(1)).astype(np.uint8)
            code.encode_bits(bits)
            got = ((buf[:, :, 0] >> np.uint64(plane)) & np.uint64(1)).astype(np.uint8)
            assert np.array_equal(
                bits[: code.n_cols], got[: code.n_cols]
            ), plane


@pytest.mark.parametrize("name", list(CODE_FAMILIES))
@pytest.mark.parametrize("k", [3, 4])
def test_p_is_row_parity_says_what_encode_does(name, k, random_words):
    """``p_is_row_parity`` lets a write fold P's CRC from the data
    strips'; it must hold exactly where P is their XOR (every family
    but Cauchy RS with the original matrix)."""
    code = make_code(name, k)
    buf = encoded_stripe(code, random_words)
    is_xor = np.array_equal(np.bitwise_xor.reduce(buf[:k], axis=0), buf[code.p_col])
    assert code.p_is_row_parity == is_xor
    assert is_xor == (name != "cauchy-rs-original")
