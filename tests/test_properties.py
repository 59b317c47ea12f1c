"""Property-based tests (hypothesis) on the core invariants.

These complement the exhaustive small-parameter tests with randomized
exploration of larger parameter spaces: round-trip recovery, schedule
executor equivalence, field laws, and update/encode consistency.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codes import make_code
from repro.core.decoder import decode_schedule
from repro.core.encoder import encode_schedule
from repro.engine.executor import StreamingSchedule, execute_bits
from repro.engine.kernels import compile_kernel
from repro.engine.ops import Schedule
from repro.gf.gf256 import GF256
from repro.utils.modular import Mod, mod_inverse
from repro.utils.primes import primes_up_to
from repro.utils.words import WORD_BYTES, WORD_DTYPE, bytes_to_words, words_to_bytes

PRIMES = [p for p in primes_up_to(23) if p != 2]

pk_strategy = st.sampled_from(PRIMES).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(2, p))
)

CODE_NAMES = ["liberation-optimal", "liberation-original", "evenodd", "rdp"]


def build_code(name, p, k, element_size=8):
    if name == "rdp":
        k = min(k, p - 1)
        if k < 2:
            k = 2
    return make_code(name, k, p=p, element_size=element_size)


@st.composite
def code_and_erasures(draw):
    name = draw(st.sampled_from(CODE_NAMES))
    p, k = draw(pk_strategy)
    if name == "rdp" and k >= p:
        k = p - 1
    n_ers = draw(st.integers(0, 2))
    ers = draw(
        st.lists(
            st.integers(0, k + 1), min_size=n_ers, max_size=n_ers, unique=True
        )
    )
    return name, p, k, tuple(sorted(ers))


class TestRoundTripProperty:
    @settings(max_examples=120, deadline=None)
    @given(case=code_and_erasures(), seed=st.integers(0, 2**31))
    def test_decode_inverts_erasure(self, case, seed):
        name, p, k, ers = case
        code = build_code(name, p, k)
        rng = np.random.default_rng(seed)
        buf = code.alloc_stripe()
        buf[: code.k] = rng.integers(0, 2**64, buf[: code.k].shape, dtype=np.uint64)
        code.encode(buf)
        ref = buf.copy()
        for c in ers:
            buf[c] = rng.integers(0, 2**64, buf[c].shape, dtype=np.uint64)
        code.decode(buf, list(ers))
        assert np.array_equal(buf[: code.n_cols], ref[: code.n_cols])


class TestUpdateProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        case=code_and_erasures(),
        seed=st.integers(0, 2**31),
        n_updates=st.integers(1, 6),
    )
    def test_updates_preserve_consistency(self, case, seed, n_updates):
        """Any sequence of delta updates == full re-encode."""
        name, p, k, _ = case
        code = build_code(name, p, k)
        rng = np.random.default_rng(seed)
        buf = code.alloc_stripe()
        buf[: code.k] = rng.integers(0, 2**64, buf[: code.k].shape, dtype=np.uint64)
        code.encode(buf)
        for _ in range(n_updates):
            col = int(rng.integers(0, code.k))
            row = int(rng.integers(0, code.rows))
            code.update(
                buf, col, row, rng.integers(0, 2**64, buf[col, row].shape, dtype=np.uint64)
            )
        assert code.verify(buf)


class TestLiberationBounds:
    @settings(max_examples=60, deadline=None)
    @given(pk=pk_strategy)
    def test_encode_always_at_bound(self, pk):
        p, k = pk
        assert encode_schedule(p, k).n_xors == 2 * p * (k - 1)

    @settings(max_examples=60, deadline=None)
    @given(pk=pk_strategy, data=st.data())
    def test_decode_never_below_bound(self, pk, data):
        p, k = pk
        l = data.draw(st.integers(0, k - 1))
        r = data.draw(st.integers(0, k - 1).filter(lambda x: x != l))
        sched = decode_schedule(p, k, sorted((l, r)))
        # Information-theoretic floor: each missing bit needs at least
        # one XOR with something, and the bound is k-1 per bit.
        assert sched.n_xors >= 2 * p * (k - 1) - 2 * p  # generous floor
        # ... and the near-optimality ceiling from the paper.
        assert sched.n_xors <= 2 * p * (k - 1) * 1.30 + 4 * p


class TestExecutorEquivalence:
    @st.composite
    def schedules(draw):
        cols = draw(st.integers(2, 7))
        rows = draw(st.integers(1, 8))
        n_ops = draw(st.integers(1, 150))
        p_copy = draw(st.floats(0.05, 0.3))
        rng = np.random.default_rng(draw(st.integers(0, 2**31)))
        s = Schedule(cols, rows)
        for _ in range(n_ops):
            dst = (int(rng.integers(0, cols)), int(rng.integers(0, rows)))
            src = (int(rng.integers(0, cols)), int(rng.integers(0, rows)))
            if dst == src:
                continue
            if not s.touched(dst) or rng.random() < p_copy:
                s.copy_cell(dst, src)
            else:
                s.accumulate(dst, src)
        return s

    @settings(max_examples=100, deadline=None)
    @given(sched=schedules(), seed=st.integers(0, 2**31))
    def test_three_executors_agree(self, sched, seed):
        """Bit reference, streaming and the validated kernel plan (one
        stripe, and word-packed wide) agree on arbitrary schedules."""
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, (sched.cols, sched.rows)).astype(np.uint8)
        words = rng.integers(0, 2**64, (sched.cols, sched.rows, 2), dtype=np.uint64)
        words[:, :, 0] = (words[:, :, 0] & ~np.uint64(1)) | bits
        streaming = StreamingSchedule(sched).run(words.copy())
        plan = compile_kernel(sched, validate=True)
        kernel = plan.run(words.copy())
        wide = plan.run(np.concatenate([words, words], axis=2))
        execute_bits(sched, bits)
        assert np.array_equal(streaming[:, :, 0] & np.uint64(1), bits.astype(np.uint64))
        assert np.array_equal(kernel, streaming)
        assert np.array_equal(wide[:, :, :2], streaming)
        assert np.array_equal(wide[:, :, 2:], streaming)

    @settings(max_examples=60, deadline=None)
    @given(sched=schedules())
    def test_xor_count_invariant_under_compilation(self, sched):
        """Lowering reorganises ops but never changes the declared cost."""
        before = sched.n_xors
        plan = compile_kernel(sched)
        assert sched.n_xors == before
        assert plan.n_cell_xors == before


class TestWordCodecProperty:
    """bytes_to_words / words_to_bytes round-trip at every alignment."""

    @settings(max_examples=120, deadline=None)
    @given(n_words=st.integers(0, 64), seed=st.integers(0, 2**31))
    def test_round_trip_aligned(self, n_words, seed):
        blob = np.random.default_rng(seed).bytes(n_words * WORD_BYTES)
        words = bytes_to_words(blob)
        assert words.dtype == WORD_DTYPE
        assert words.size == n_words
        assert words_to_bytes(words) == blob

    @settings(max_examples=120, deadline=None)
    @given(words=st.lists(st.integers(0, 2**64 - 1), max_size=32))
    def test_round_trip_from_words(self, words):
        arr = np.array(words, dtype=WORD_DTYPE)
        back = bytes_to_words(words_to_bytes(arr))
        assert np.array_equal(back, arr)

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(0, 256))
    def test_misaligned_lengths_rejected(self, n):
        blob = b"\x5a" * n
        if n % WORD_BYTES:
            with pytest.raises(ValueError):
                bytes_to_words(blob)
        else:
            assert words_to_bytes(bytes_to_words(blob)) == blob

    @settings(max_examples=60, deadline=None)
    @given(n_words=st.integers(1, 32), seed=st.integers(0, 2**31))
    def test_accepts_any_buffer_type(self, n_words, seed):
        blob = np.random.default_rng(seed).bytes(n_words * WORD_BYTES)
        for view in (blob, bytearray(blob), memoryview(blob)):
            assert np.array_equal(bytes_to_words(view), bytes_to_words(blob))


class TestModularProperty:
    """The paper's <.> operator and its derived constants, any prime."""

    @settings(max_examples=200, deadline=None)
    @given(p=st.sampled_from(PRIMES), x=st.integers(-10**6, 10**6))
    def test_residue_range_and_congruence(self, p, x):
        m = Mod(p)
        r = m(x)
        assert 0 <= r < p
        assert (x - r) % p == 0
        assert m(r) == r  # idempotent on residues

    @settings(max_examples=200, deadline=None)
    @given(p=st.sampled_from(PRIMES), a=st.integers(-10**4, 10**4),
           b=st.integers(-10**4, 10**4))
    def test_homomorphism(self, p, a, b):
        m = Mod(p)
        assert m(a + b) == m(m(a) + m(b))
        assert m(a * b) == m(m(a) * m(b))

    @settings(max_examples=200, deadline=None)
    @given(p=st.sampled_from(PRIMES), a=st.integers(1, 10**4))
    def test_inverse_identity(self, p, a):
        m = Mod(p)
        if m(a) == 0:
            with pytest.raises(ZeroDivisionError):
                m.inv(a)
        else:
            assert m(a * m.inv(a)) == 1
            assert mod_inverse(a, p) == m.inv(a)

    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from(PRIMES))
    def test_half_constants(self, p):
        m = Mod(p)
        assert m.half_minus + m.half_plus == p
        assert m(2 * m.half_plus) == 1  # (p+1)/2 is the inverse of 2
        assert m.inv(2) == m.half_plus


class TestEraseAnyTwoProperty:
    """encode -> erase any <= 2 columns -> decode, on the ISSUE's exact
    prime menu, for every code family (superset runs above draw p more
    broadly; this pins the named contract)."""

    @settings(max_examples=100, deadline=None)
    @given(
        name=st.sampled_from(CODE_NAMES),
        p=st.sampled_from([5, 7, 11, 13]),
        data=st.data(),
    )
    def test_any_two_erasures_recovered(self, name, p, data):
        k = data.draw(st.integers(2, p - 1 if name == "rdp" else p))
        code = build_code(name, p, k)
        ers = data.draw(st.lists(st.integers(0, code.n_cols - 1),
                                 min_size=2, max_size=2, unique=True))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        buf = code.alloc_stripe()
        buf[: code.k] = rng.integers(0, 2**64, buf[: code.k].shape, dtype=np.uint64)
        code.encode(buf)
        ref = buf.copy()
        for c in ers:
            buf[c] = rng.integers(0, 2**64, buf[c].shape, dtype=np.uint64)
        code.decode(buf, sorted(ers))
        assert np.array_equal(buf[: code.n_cols], ref[: code.n_cols])


class TestGF256Properties:
    gf = GF256()

    @settings(max_examples=200, deadline=None)
    @given(a=st.integers(0, 255), b=st.integers(0, 255), c=st.integers(0, 255))
    def test_ring_axioms(self, a, b, c):
        gf = self.gf
        assert int(gf.mul(a, b)) == int(gf.mul(b, a))
        assert int(gf.mul(gf.mul(a, b), c)) == int(gf.mul(a, gf.mul(b, c)))
        assert int(gf.mul(a, b ^ c)) == int(gf.mul(a, b)) ^ int(gf.mul(a, c))

    @settings(max_examples=100, deadline=None)
    @given(a=st.integers(1, 255))
    def test_inverse(self, a):
        assert int(self.gf.mul(a, self.gf.inverse(a))) == 1


class TestErrorCorrectionProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        pk=pk_strategy,
        col_seed=st.integers(0, 2**31),
    )
    def test_any_single_column_corruption_corrected(self, pk, col_seed):
        from repro.core.error_correction import ScanStatus, locate_and_correct

        p, k = pk
        code = make_code("liberation-optimal", k, p=p, element_size=8)
        rng = np.random.default_rng(col_seed)
        buf = code.alloc_stripe()
        buf[:k] = rng.integers(0, 2**64, buf[:k].shape, dtype=np.uint64)
        code.encode(buf)
        ref = buf.copy()
        col = int(rng.integers(0, k + 2))
        n = int(rng.integers(1, p + 1))
        rows = rng.choice(p, size=n, replace=False)
        for r in rows:
            buf[col, r] ^= rng.integers(1, 2**64, buf[col, r].shape, dtype=np.uint64)
        res = locate_and_correct(code.geometry, buf)
        assert res.status is ScanStatus.CORRECTED
        assert res.column == col
        assert np.array_equal(buf, ref)
