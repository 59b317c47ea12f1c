"""Tests for schedule execution: the bit reference, streaming and kernel.

The central invariant: for any legal schedule, the kernel plan (on one
stripe and word-packed wide over several), the :class:`StreamingSchedule`
and the op-by-op bit executor compute identical results.  The random
schedules here reach shapes the code families never emit -- copies
anywhere, cells read mid-accumulation, sources overwritten after use --
so they are the kernel lowering's arbitrary-schedule coverage.
"""

import numpy as np
import pytest

from repro.engine.executor import StreamingSchedule, execute_bits
from repro.engine.kernels import KernelPlan, _validate_kernel, compile_kernel
from repro.engine.ops import Schedule
from repro.engine.verify import ScheduleViolation


def random_schedule(rng, cols=5, rows=4, n_ops=60, p_copy=0.15):
    """A random legal schedule with read-write interleavings."""
    s = Schedule(cols, rows)
    for _ in range(n_ops):
        dst = (int(rng.integers(0, cols)), int(rng.integers(0, rows)))
        src = (int(rng.integers(0, cols)), int(rng.integers(0, rows)))
        if src == dst:
            continue
        if not s.touched(dst) or rng.random() < p_copy:
            s.copy_cell(dst, src)
        else:
            s.accumulate(dst, src)
    return s


def random_geometry_schedule(rng):
    """A random schedule over 2-7 columns, 1-8 rows, up to 150 ops."""
    return random_schedule(
        rng,
        cols=int(rng.integers(2, 8)),
        rows=int(rng.integers(1, 9)),
        n_ops=int(rng.integers(1, 151)),
        p_copy=float(rng.uniform(0.05, 0.3)),
    )


def run_all(sched, buf):
    """Run ``sched`` over copies of ``buf`` through every word executor.

    The streaming executor is the word-level reference; the validated
    kernel plan must match it on one stripe and on each block of a
    word-packed three-stripe batch, and the bit reference must match
    its low and high bit planes.  Returns the agreed output.
    """
    ref = StreamingSchedule(sched).run(buf.copy())
    plan = compile_kernel(sched, validate=True)
    np.testing.assert_array_equal(plan.run(buf.copy()), ref, err_msg="kernel")
    words = buf.shape[2]
    wide = plan.run(np.concatenate([buf, buf, buf], axis=2))
    for i in range(3):
        np.testing.assert_array_equal(
            wide[:, :, i * words : (i + 1) * words], ref, err_msg=f"kernel wide {i}"
        )
    for plane in (0, 63):
        bits = ((buf[:, :, 0] >> np.uint64(plane)) & np.uint64(1)).astype(np.uint8)
        execute_bits(sched, bits)
        np.testing.assert_array_equal(
            bits,
            ((ref[:, :, 0] >> np.uint64(plane)) & np.uint64(1)).astype(np.uint8),
            err_msg=f"bit plane {plane}",
        )
    return ref


class TestBitExecutor:
    def test_copy_then_xor(self):
        s = Schedule(3, 1)
        s.copy_cell((2, 0), (0, 0))
        s.accumulate((2, 0), (1, 0))
        bits = np.array([[1], [1], [0]], dtype=np.uint8)
        execute_bits(s, bits)
        assert bits[2, 0] == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            execute_bits(Schedule(3, 2), np.zeros((2, 2), dtype=np.uint8))


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_compiled_matches_bits(self, seed):
        rng = np.random.default_rng(seed)
        sched = random_geometry_schedule(rng)
        bits = rng.integers(0, 2, (sched.cols, sched.rows)).astype(np.uint8)
        # Word buffer whose single word's low bit mirrors `bits`.
        words = bits.astype(np.uint64)[:, :, None]
        wide = np.repeat(words, 3, axis=2)  # word-packed three-stripe batch
        execute_bits(sched, bits)
        plan = compile_kernel(sched, validate=True)
        plan.run(words)
        plan.run(wide)
        assert np.array_equal(words[:, :, 0] & 1, bits)
        for i in range(3):
            assert np.array_equal(wide[:, :, i] & 1, bits)

    @pytest.mark.parametrize("seed", range(12))
    def test_streaming_matches_bits(self, seed):
        rng = np.random.default_rng(seed)
        sched = random_schedule(rng)
        bits = rng.integers(0, 2, (5, 4)).astype(np.uint8)
        words = bits.astype(np.uint64)[:, :, None]
        execute_bits(sched, bits)
        StreamingSchedule(sched).run(words)
        assert np.array_equal(words[:, :, 0] & 1, bits)

    @pytest.mark.parametrize("seed", range(8))
    def test_batched_matches_sequential(self, seed):
        # One kernel call over a word-packed batch must equal running
        # each stripe through the op-at-a-time executor in turn.
        rng = np.random.default_rng(100 + seed)
        sched = random_geometry_schedule(rng)
        n, words = 4, 3
        stripes = [
            rng.integers(0, 2**64, (sched.cols, sched.rows, words), dtype=np.uint64)
            for _ in range(n)
        ]
        packed = np.concatenate(stripes, axis=2)
        compile_kernel(sched, validate=True).run(packed)
        streaming = StreamingSchedule(sched)
        for i, stripe in enumerate(stripes):
            np.testing.assert_array_equal(
                packed[:, :, i * words : (i + 1) * words], streaming.run(stripe)
            )


class TestHazards:
    def test_value_read_mid_accumulation(self):
        """A copy must observe the partial value at its program point.

        This is exactly the encoder's common-expression pattern: Q is
        seeded from P while P is only partially accumulated.
        """
        s = Schedule(4, 1)
        s.copy_cell((2, 0), (0, 0))  # P <- a
        s.accumulate((2, 0), (1, 0))  # P ^= b  (P == common expression)
        s.copy_cell((3, 0), (2, 0))  # Q <- E  (partial P!)
        s.accumulate((2, 0), (1, 0))  # P continues accumulating
        buf = np.array([[[0b100]], [[0b010]], [[0]], [[0]]], dtype=np.uint64)
        out = run_all(s, buf)
        assert out[3, 0, 0] == 0b110  # saw a^b, not the final P
        assert out[2, 0, 0] == 0b100  # a^b^b

    def test_write_after_read(self):
        """A source overwritten later must have been consumed first."""
        s = Schedule(3, 1)
        s.copy_cell((1, 0), (0, 0))  # B <- A
        s.copy_cell((0, 0), (2, 0))  # A <- C (overwrites the source)
        buf = np.array([[[7]], [[0]], [[9]]], dtype=np.uint64)
        out = run_all(s, buf)
        assert out[1, 0, 0] == 7 and out[0, 0, 0] == 9

    def test_in_place_syndrome_update(self):
        """Decode pattern: produce, consume, update, consume again."""
        s = Schedule(3, 2)
        s.copy_cell((2, 0), (0, 0))  # S <- a
        s.accumulate((2, 0), (1, 0))  # S ^= b
        s.copy_cell((2, 1), (2, 0))  # T <- S
        s.accumulate((2, 0), (0, 1))  # S ^= c  (update after read)
        s.accumulate((2, 1), (2, 0))  # T ^= S' (read updated value)
        rng = np.random.default_rng(5)
        buf = rng.integers(0, 2**64, (3, 2, 2), dtype=np.uint64)
        expect = buf.copy()
        a, b, c = expect[0, 0].copy(), expect[1, 0].copy(), expect[0, 1].copy()
        expect[2, 0] = a ^ b ^ c
        expect[2, 1] = (a ^ b) ^ (a ^ b ^ c)
        assert np.array_equal(run_all(s, buf), expect)


class TestCompiledProperties:
    def test_run_shape_mismatch(self):
        s = Schedule(3, 2)
        s.copy_cell((2, 0), (0, 0))
        with pytest.raises(ValueError):
            compile_kernel(s).run(np.zeros((3, 3, 1), dtype=np.uint64))
        with pytest.raises(ValueError):
            StreamingSchedule(s).run(np.zeros((3, 3, 1), dtype=np.uint64))

    def test_streaming_op_count(self):
        s = Schedule(3, 1)
        s.copy_cell((2, 0), (0, 0))
        s.accumulate((2, 0), (1, 0))
        assert StreamingSchedule(s).n_ops == 2


class TestCompileValidation:
    """compile_kernel(validate=True): the lowering is symbolically
    proved equivalent to the source schedule at compile time."""

    def _real_schedules(self):
        from repro.codes import make_code

        for name in ("liberation-optimal", "evenodd", "rdp"):
            code = make_code(name, 4, p=5)
            yield code.build_encode_schedule()
            yield code.build_decode_schedule((0, 1))
            yield code.build_decode_schedule((1, code.q_col))

    def test_real_schedules_validate(self):
        for sched in self._real_schedules():
            compile_kernel(sched, validate=True)

    def test_planted_lowering_bug_is_caught(self):
        from repro.codes import make_code

        sched = make_code("liberation-optimal", 4, p=5).build_encode_schedule()
        good = compile_kernel(sched)
        # Corrupt the lowering: drop one slice XOR's source term.
        ops = list(good.ops)
        ops.remove(next(op for op in ops if op.kind == "xor"))
        bad = KernelPlan(good.cols, good.rows, ops, n_levels=good.n_levels)
        with pytest.raises(ScheduleViolation, match="lowering diverges"):
            _validate_kernel(sched, bad)

    def test_wrong_op_order_is_caught(self):
        # dst2 copies dst1's accumulated value, so op order matters.
        s = Schedule(4, 1)
        s.copy_cell((2, 0), (0, 0))
        s.accumulate((2, 0), (1, 0))
        s.copy_cell((3, 0), (2, 0))
        good = compile_kernel(s, validate=True)
        assert len(good.ops) > 1
        bad = KernelPlan(
            good.cols, good.rows, list(reversed(good.ops)), n_levels=good.n_levels
        )
        with pytest.raises(ScheduleViolation, match="lowering diverges"):
            _validate_kernel(s, bad)
