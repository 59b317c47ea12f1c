"""The differential kernel-equivalence harness (this PR's tentpole).

The kernel data plane (:mod:`repro.engine.kernels`) is a pure
*execution-strategy* change: lowering a schedule to levelized bulk-XOR
slice calls must never change a single output byte.  This harness pins
that claim three ways:

* a **deterministic grid** -- every XOR-schedule code family at
  p in {5, 7, 11, 13} (plus Cauchy RS, which is parameterized by ``w``
  rather than ``p``), random data, encode plus a menu of single- and
  double-erasure decodes, each schedule run through the naive
  streaming executor, the kernel plan on a single stripe, the kernel
  plan bound wide over a word-packed batch, the kernel plan and the
  streaming executor each bound over the stripe's columns (survivors as
  read-only byte views at an odd offset, as strips land in their reply
  frames) and over a batch's columns (each ``[rows, n, element_size]``,
  the transposed view of a stripe-major array, as a rebuild window's
  strips of a column land in one frame, for n in {1, 3, 16}, against n
  per-stripe runs), and the bit-plane reference -- all byte-identical,
  with every kernel lowering symbolically proved (``validate=True``);
* a **Hypothesis fuzz** over random (family, p, k, data, erasures)
  cases -- the shapes the grid's fixed menu cannot enumerate;
* **mutation canaries** -- a single flipped XOR, planted either in the
  source schedule or in the lowered op list, must be caught (by the
  byte comparison, over a stripe buffer, a stripe's columns or a
  batch's, and by the symbolic prover respectively).  A harness that cannot fail is not
  evidence; these prove this one can;
* **decodes over columns** -- every registered family's ``code.decode``
  given the stripe, or a batch of stripes, as its columns matches its
  decode of each stripe buffer, and a decode whose plan reads a column
  that was not supplied raises.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codes import available_codes, make_code
from repro.engine.executor import StreamingSchedule, execute_bits
from repro.engine.kernels import KernelOp, KernelPlan, _validate_kernel, compile_kernel
from repro.engine.ops import Schedule, XorOp
from repro.engine.verify import ScheduleViolation

#: The ISSUE's prime menu.
PRIMES = (5, 7, 11, 13)

#: family -> max k at prime p (RDP and Blaum-Roth cap at p - 1).
P_FAMILIES = {
    "liberation-optimal": lambda p: p,
    "liberation-original": lambda p: p,
    "evenodd": lambda p: p,
    "rdp": lambda p: p - 1,
    "blaum-roth": lambda p: p - 1,
}


def xor_code(name, p, k=None, element_size=8):
    if name == "cauchy-rs":
        return make_code(name, k or 4, element_size=element_size)
    if k is None:
        k = P_FAMILIES[name](p)
    return make_code(name, k, p=p, element_size=element_size)


def filled(code, seed):
    """A stripe with random data columns (parity columns zero)."""
    rng = np.random.default_rng(seed)
    buf = code.alloc_stripe()
    buf[: code.k] = rng.integers(0, 2**64, buf[: code.k].shape, dtype=np.uint64)
    return buf


def erasure_menu(code):
    """Deterministic single/double erasures: data, parity, and mixed."""
    k = code.k
    singles = {(0,), (k - 1,), (k,), (k + 1,)}
    doubles = {(0, 1), (0, k), (k - 1, k + 1), (k, k + 1), (k // 2, k - 1)}
    return sorted(
        pat
        for pat in singles | doubles
        if len(set(pat)) == len(pat) and all(0 <= c < code.n_cols for c in pat)
    )


#: Stripes in a batch binding: one, a few, and a rebuild window's 16.
BATCH_WIDTHS = (1, 3, 16)


def frame_view(column):
    """``column``'s bytes as a read-only byte view at an odd offset of a
    ``bytes`` object, the way a strip lands in its reply frame (a batch's
    column ``[n, rows, ...]``, the way a window's strips of a column
    land in one frame)."""
    raw = b"\x00" + column.tobytes()
    return np.frombuffer(raw, np.uint8, offset=1).reshape(column.shape[:-1] + (-1,))


def more_stripes(buf, n, seed):
    """``buf`` and ``n - 1`` random stripes of its shape."""
    rng = np.random.default_rng(seed)
    return [buf] + [rng.integers(0, 2**64, buf.shape, dtype=np.uint64) for _ in range(n - 1)]


def batch_columns(stripes, writes, reads):
    """``stripes`` given as a batch's columns: each column ``[rows, n,
    element_size]``, the transposed view of a stripe-major byte array
    ``[n, rows, element_size]`` -- a writable copy of each column in
    ``writes``, a read-only frame view of each other one in ``reads``,
    ``None`` for the rest."""
    columns = []
    for c in range(stripes[0].shape[0]):
        stacked = np.stack([stripe[c].view(np.uint8) for stripe in stripes])
        if c in writes:
            columns.append(stacked.transpose(1, 0, 2))
        elif c in reads:
            columns.append(frame_view(stacked).transpose(1, 0, 2))
        else:
            columns.append(None)
    return columns


def assert_batch_agrees(columns, wants, what):
    """Each supplied column of the batch ``columns`` holds, for stripe
    ``i``, the bytes of that column of ``wants[i]``."""
    for c, column in enumerate(columns):
        if column is not None:
            np.testing.assert_array_equal(
                column.transpose(1, 0, 2),
                np.stack([want[c].view(np.uint8) for want in wants]),
                err_msg=f"{what}, column {c}",
            )


def as_columns(schedule, buf):
    """``buf`` given as its columns to ``schedule``: a writable byte copy
    of each column it writes, a read-only frame view of each it only
    reads, ``None`` for the rest."""
    writes = {op.dst_col for op in schedule}
    reads = {op.src_col for op in schedule}
    return [
        buf[c].view(np.uint8).copy() if c in writes
        else frame_view(buf[c]) if c in reads
        else None
        for c in range(schedule.cols)
    ]


def assert_columns_agree(columns, want, what):
    """Each supplied column of ``columns`` holds the bytes of ``want``'s."""
    for c, column in enumerate(columns):
        if column is not None:
            np.testing.assert_array_equal(
                column, want[c].view(np.uint8), err_msg=f"{what}, column {c}"
            )


def assert_paths_agree(schedule, buf, what):
    """Every execution path of ``schedule`` maps ``buf`` identically.

    Returns the agreed output stripe.  The op-at-a-time streaming
    executor is the word-level reference; the kernel plan (single-stripe,
    word-packed wide over three stripes, and bound over the stripe's
    columns and over a batch's), the streaming executor bound over the
    same columns, and the bit-plane reference must match it byte for
    byte.  A batch of ``n`` stripes -- ``buf`` and random ones -- must
    match ``n`` runs of the reference, stripe by stripe.
    """
    streaming = StreamingSchedule(schedule).run(buf.copy())
    plan = compile_kernel(schedule, validate=True)
    kernel = plan.run(buf.copy())
    np.testing.assert_array_equal(streaming, kernel, err_msg=f"{what}: kernel")
    stripes = more_stripes(buf, max(BATCH_WIDTHS), seed=len(schedule))
    wants = [streaming] + [StreamingSchedule(schedule).run(s.copy()) for s in stripes[1:]]
    writes = {op.dst_col for op in schedule}
    reads = {op.src_col for op in schedule}
    for name, run in (("kernel", plan.run), ("streaming", StreamingSchedule(schedule).run)):
        columns = as_columns(schedule, buf)
        run(columns)
        assert_columns_agree(columns, streaming, f"{what}: {name} over columns")
        for n in BATCH_WIDTHS:
            columns = batch_columns(stripes[:n], writes, reads)
            run(columns)
            assert_batch_agrees(columns, wants[:n], f"{what}: {name} over {n} stripes' columns")
    words = buf.shape[2]
    wide = plan.run(np.concatenate([buf, buf, buf], axis=2))
    for i in range(3):
        np.testing.assert_array_equal(
            streaming,
            wide[:, :, i * words : (i + 1) * words],
            err_msg=f"{what}: kernel wide path, stripe {i}",
        )
    # GF(2)-linearity: the bit reference on one plane must equal that
    # plane of the word run.
    bits = (buf[:, :, 0] & np.uint64(1)).astype(np.uint8)
    execute_bits(schedule, bits)
    np.testing.assert_array_equal(
        bits,
        (streaming[:, :, 0] & np.uint64(1)).astype(np.uint8),
        err_msg=f"{what}: bit-plane reference",
    )
    return streaming


class TestDifferentialGrid:
    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("name", sorted(P_FAMILIES))
    def test_all_paths_agree_for_family_at_prime(self, name, p):
        code = xor_code(name, p)
        buf = filled(code, seed=1000 * p + len(name))
        encoded = assert_paths_agree(code.encode_schedule(), buf, f"{name} encode")
        for pattern in erasure_menu(code):
            probe = encoded.copy()
            for c in pattern:
                probe[c] = 0
            decoded = assert_paths_agree(
                code.build_decode_schedule(pattern), probe, f"{name} decode{pattern}"
            )
            # Round trip: the agreed decode output restores the stripe.
            np.testing.assert_array_equal(
                decoded[: code.n_cols],
                encoded[: code.n_cols],
                err_msg=f"{name} p={p} decode{pattern}: round trip",
            )

    @pytest.mark.parametrize("w", (3, 4, 5))
    def test_cauchy_rs_paths_agree(self, w):
        code = make_code("cauchy-rs", 2**w - 2, w=w, element_size=8)
        buf = filled(code, seed=w)
        encoded = assert_paths_agree(code.encode_schedule(), buf, f"cauchy w={w}")
        for pattern in ((0,), (0, 1), (code.k, code.k + 1)):
            probe = encoded.copy()
            for c in pattern:
                probe[c] = 0
            assert_paths_agree(
                code.build_decode_schedule(pattern), probe, f"cauchy decode{pattern}"
            )


@st.composite
def stripe_cases(draw):
    name = draw(st.sampled_from(sorted(P_FAMILIES)))
    p = draw(st.sampled_from(PRIMES))
    k = draw(st.integers(2, P_FAMILIES[name](p)))
    n_ers = draw(st.integers(0, 2))
    erasures = tuple(
        sorted(
            draw(
                st.lists(
                    st.integers(0, k + 1),
                    min_size=n_ers,
                    max_size=n_ers,
                    unique=True,
                )
            )
        )
    )
    return name, p, k, draw(st.integers(0, 2**31)), erasures


#: Example budget for the Hypothesis sweep.  The default keeps the
#: tier-1 run fast; CI's ``kernels`` job raises it to a ~60 s smoke.
_FUZZ_EXAMPLES = int(os.environ.get("REPRO_KERNEL_FUZZ_EXAMPLES", "30"))


class TestKernelEquivalenceFuzz:
    @settings(max_examples=_FUZZ_EXAMPLES, deadline=None)
    @given(case=stripe_cases())
    def test_random_geometry_data_and_erasures(self, case):
        name, p, k, seed, erasures = case
        code = xor_code(name, p, k=k)
        buf = filled(code, seed)
        encoded = assert_paths_agree(
            code.encode_schedule(), buf, f"{name} p={p} k={k} encode"
        )
        if erasures:
            probe = encoded.copy()
            for c in erasures:
                probe[c] = 0
            assert_paths_agree(
                code.build_decode_schedule(erasures),
                probe,
                f"{name} p={p} k={k} decode{erasures}",
            )


class TestXorWorkConservation:
    """Lowering preserves the paper's complexity accounting exactly."""

    @pytest.mark.parametrize("name", sorted(P_FAMILIES))
    def test_plan_cell_xors_equal_schedule_xors(self, name):
        code = xor_code(name, 11)
        enc = code.encode_schedule()
        assert compile_kernel(enc).n_cell_xors == enc.n_xors
        dec = code.build_decode_schedule((0, 1))
        assert compile_kernel(dec).n_cell_xors == dec.n_xors


class TestMutationCanary:
    """The harness must be able to fail: plant one flipped XOR."""

    def _flip_source_row(self, sched):
        ops = list(sched)
        for i, op in enumerate(ops):
            flipped_row = (op.src_row + 1) % sched.rows
            if not op.copy and (op.src_col, flipped_row) != (op.dst_col, op.dst_row):
                ops[i] = XorOp(
                    op.dst_col, op.dst_row, op.src_col, flipped_row, copy=False
                )
                return Schedule(sched.cols, sched.rows, ops)
        raise AssertionError("no flippable XOR found")

    def test_flipped_xor_in_schedule_diverges(self):
        code = xor_code("liberation-optimal", 11)
        sched = code.encode_schedule()
        mutated = self._flip_source_row(sched)
        buf = filled(code, seed=7)
        ref = StreamingSchedule(sched).run(buf.copy())
        bad = compile_kernel(mutated).run(buf.copy())
        assert not np.array_equal(ref, bad), (
            "a flipped XOR in the source schedule must change the output"
        )
        # The mutated schedule still *self*-validates: the prover checks
        # lowering-vs-schedule, and the lowering faithfully executes the
        # (wrong) schedule.  Catching this flip is the byte diff's job.
        compile_kernel(mutated, validate=True)

    def _doctor_one_op(self, plan, kind="xor"):
        for i, op in enumerate(plan.ops):
            if op.kind != kind:
                continue
            if kind == "reduce":  # drop the block's last source column
                if op.n_sources < 3:
                    continue
                doctored = KernelOp(
                    "reduce", op.dst_col, op.dst_lo, op.dst_hi,
                    op.src_col, op.src_lo, op.src_hi,
                    src_col_hi=op.src_col_hi - 1, init=op.init,
                )
            else:
                new_src = (op.src_col + 1) % plan.cols
                if new_src == op.dst_col or new_src == op.src_col:
                    continue
                doctored = KernelOp(
                    "xor", op.dst_col, op.dst_lo, op.dst_hi,
                    new_src, op.src_lo, op.src_hi,
                )
            ops = list(plan.ops)
            ops[i] = doctored
            return KernelPlan(plan.cols, plan.rows, ops, n_levels=plan.n_levels)
        raise AssertionError(f"no doctorable {kind} op found")

    def test_flipped_xor_in_lowered_plan_fails_the_prover(self):
        code = xor_code("liberation-optimal", 5)
        sched = code.encode_schedule()
        doctored = self._doctor_one_op(compile_kernel(sched, validate=True))
        with pytest.raises(ScheduleViolation, match="diverges at cell"):
            _validate_kernel(sched, doctored)

    def test_flipped_xor_in_lowered_plan_diverges_at_runtime(self):
        code = xor_code("liberation-optimal", 5)
        sched = code.encode_schedule()
        plan = compile_kernel(sched)
        doctored = self._doctor_one_op(plan)
        buf = filled(code, seed=3)
        assert not np.array_equal(plan.run(buf.copy()), doctored.run(buf.copy()))

    @pytest.mark.parametrize("kind", ["xor", "reduce"])
    def test_doctored_op_bound_over_columns_diverges(self, kind):
        # A reduce binds over columns as a copy-then-XOR chain, so a
        # doctored block must show there as well as a doctored slice op.
        code = xor_code("liberation-optimal", 5)
        sched = code.encode_schedule()
        plan = compile_kernel(sched)
        doctored = self._doctor_one_op(plan, kind)
        buf = filled(code, seed=3)
        writes = {op.dst_col for op in sched}
        reads = {op.src_col for op in sched}
        stripes = more_stripes(buf, max(BATCH_WIDTHS), seed=3)
        for what, make in [("a stripe's", lambda: as_columns(sched, buf))] + [
            (f"{n} stripes'", lambda n=n: batch_columns(stripes[:n], writes, reads))
            for n in BATCH_WIDTHS
        ]:
            good, bad = make(), make()
            plan.run(good)
            doctored.run(bad)
            assert any(
                not np.array_equal(g, b) for g, b in zip(good, bad) if g is not None
            ), f"a doctored {kind} op bound over {what} columns must change the output"

    def test_changed_xor_work_fails_conservation(self):
        # compile-time tripwire: a lowering that loses or invents XOR
        # work is rejected before any data is touched.  Simulated by
        # lying about the schedule's n_xors via an appended no-op-free
        # extra XOR in the schedule copy handed to the checker.
        code = xor_code("liberation-optimal", 5)
        sched = code.encode_schedule()
        plan = compile_kernel(sched)
        extended = Schedule(
            sched.cols,
            sched.rows,
            list(sched) + [XorOp(sched.cols - 1, 0, 0, 0, copy=False)],
        )
        assert plan.n_cell_xors != extended.n_xors
        with pytest.raises(ScheduleViolation, match="diverges|XOR"):
            _validate_kernel(extended, plan)


#: Every registered family at k=3; the XOR families at p=5.
FAMILY_KWARGS = {
    name: {} if name in ("reed-solomon", "cauchy-rs", "cauchy-rs-original") else {"p": 5}
    for name in available_codes()
}


def decode_columns(code, encoded, pattern):
    """``encoded`` given to a decode of ``pattern`` as its columns: each
    survivor the decode reads a read-only frame view, each column it
    writes (the erasures, and any scratch column) a fresh zeroed byte
    array, every other column ``None``."""
    writes = {*pattern, *range(code.n_cols, code.total_cols)}
    reads = set(code.sources(pattern))
    shape = (code.rows, code.element_size)
    return [
        np.zeros(shape, np.uint8) if c in writes
        else frame_view(encoded[c]) if c in reads
        else None
        for c in range(code.total_cols)
    ]


class TestDecodeOverColumns:
    """``code.decode`` over a stripe's columns, or a batch's, equals it
    over each stripe buffer."""

    @pytest.mark.parametrize("name", sorted(FAMILY_KWARGS))
    def test_every_pattern_of_every_family(self, name):
        code = make_code(name, 3, element_size=16, **FAMILY_KWARGS[name])
        encoded = []
        for stripe in more_stripes(filled(code, seed=len(name)), max(BATCH_WIDTHS), seed=1):
            stripe[code.k :] = 0
            encoded.append(code.encode(stripe))
        patterns = [(c,) for c in range(code.n_cols)] + [
            (a, b) for a in range(code.n_cols) for b in range(a + 1, code.n_cols)
        ]
        for pattern in patterns:
            wants = []
            for stripe in encoded:
                probe = stripe.copy()
                probe[list(pattern)] = 0
                wants.append(code.decode(probe, pattern))
            columns = decode_columns(code, encoded[0], pattern)
            code.decode(columns, pattern)
            assert_columns_agree(
                [columns[c] for c in range(code.n_cols)], wants[0],
                f"{name} decode{pattern} over columns",
            )
            writes = {*pattern, *range(code.n_cols, code.total_cols)}
            zeroed = [stripe.copy() for stripe in encoded]
            for stripe in zeroed:
                stripe[sorted(writes)] = 0
            for n in BATCH_WIDTHS:
                columns = batch_columns(zeroed[:n], writes, set(code.sources(pattern)))
                code.decode(columns, pattern)
                assert_batch_agrees(
                    columns[: code.n_cols], wants[:n],
                    f"{name} decode{pattern} over {n} stripes' columns",
                )

    def _lost_source(self, name):
        code = make_code(name, 3, element_size=16, **FAMILY_KWARGS[name])
        encoded = filled(code, seed=1)
        code.encode(encoded)
        columns = decode_columns(code, encoded, (1,))
        columns[code.sources((1,))[0]] = None
        return code, columns

    @pytest.mark.parametrize("name", ["liberation-optimal", "reed-solomon"])
    def test_a_decode_reading_a_column_not_supplied_raises(self, name):
        code, columns = self._lost_source(name)
        with pytest.raises(ValueError, match="not supplied"):
            code.decode(columns, (1,))

    @pytest.mark.parametrize("executor", ["kernel", "streaming"])
    def test_a_plan_reading_a_column_not_supplied_raises(self, executor):
        code, columns = self._lost_source("liberation-optimal")
        sched = code.build_decode_schedule((1,))
        bind = compile_kernel(sched).bind if executor == "kernel" else StreamingSchedule(sched).run
        with pytest.raises(ValueError, match="not supplied"):
            bind(columns)

    def test_a_plan_writing_a_read_only_column_raises(self):
        code = xor_code("liberation-optimal", 5)
        encoded = filled(code, seed=2)
        code.encode(encoded)
        columns = decode_columns(code, encoded, (1,))
        columns[1] = frame_view(encoded[1])
        with pytest.raises(ValueError, match="read-only"):
            code.decode(columns, (1,))
        assert bytes(columns[1]) == encoded[1].tobytes()  # nothing written
