"""Tests for the structural schedule checker against real codes."""

import itertools

import pytest

from repro.engine.ops import Schedule
from repro.analysis.static.structural import ScheduleViolation, check_structure


class TestReadDiscipline:
    def test_clean_schedule_passes(self):
        s = Schedule(3, 2)
        s.copy_cell((1, 0), (0, 0))  # write erased col 1 first
        s.accumulate((1, 0), (2, 0))
        check_structure(s, unreadable_cols=[1])

    def test_read_of_unwritten_erased_cell_flagged(self):
        s = Schedule(3, 2)
        s.copy_cell((2, 0), (1, 0))  # reads erased col 1 without writing
        with pytest.raises(ScheduleViolation, match="reads unwritten"):
            check_structure(s, unreadable_cols=[1])

    def test_accumulate_into_unwritten_erased_cell_flagged(self):
        s = Schedule(3, 2)
        s.mark_touched((1, 0))
        s.accumulate((1, 0), (0, 0))  # dst holds garbage yet accumulates
        with pytest.raises(ScheduleViolation, match="accumulates into unwritten"):
            check_structure(s, unreadable_cols=[1])

    def test_write_then_read_is_fine(self):
        s = Schedule(3, 2)
        s.copy_cell((1, 0), (0, 0))
        s.copy_cell((2, 1), (1, 0))
        check_structure(s, unreadable_cols=[1])


class TestCoverage:
    def test_missing_required_dst_flagged(self):
        s = Schedule(3, 2)
        s.copy_cell((1, 0), (0, 0))
        with pytest.raises(ScheduleViolation, match="never writes"):
            check_structure(s, required_dsts=[(1, 0), (1, 1)])

    def test_full_coverage_passes(self):
        s = Schedule(3, 2)
        s.copy_cell((1, 0), (0, 0))
        s.copy_cell((1, 1), (0, 1))
        check_structure(s, required_dsts=[(1, 0), (1, 1)])


class TestAgainstRealCodes:
    @pytest.mark.parametrize(
        "name,k,p",
        [
            ("liberation-optimal", 7, 7),
            ("liberation-original", 7, 7),
            ("evenodd", 6, 7),
            ("rdp", 6, 7),
            ("blaum-roth", 6, 7),
            ("cauchy-rs", 6, None),
        ],
    )
    def test_every_decode_schedule_is_disciplined(self, name, k, p):
        from repro.codes import make_code

        kw = {} if p is None else {"p": p}
        code = make_code(name, k, **kw)
        scratch = range(code.n_cols, code.total_cols)
        for pat in [(c,) for c in range(k + 2)] + list(
            itertools.combinations(range(k + 2), 2)
        ):
            sched = code.build_decode_schedule(pat)
            required = {(c, r) for c in pat for r in range(code.rows)}
            check_structure(
                sched,
                unreadable_cols=pat,
                garbage_cols=scratch,
                required_dsts=required,
            )

    def test_encode_schedules_write_all_parity(self):
        from repro.codes import make_code

        for name in ("liberation-optimal", "evenodd", "rdp"):
            code = make_code(name, 6, p=7)
            required = {
                (c, r)
                for c in (code.p_col, code.q_col)
                for r in range(code.rows)
            }
            check_structure(code.encode_schedule(), required_dsts=required)


class TestScratchGarbage:
    """Regression: scratch-column garbage must be declarable.

    The EVENODD decoder stages its adjuster S in the scratch column with
    a copy before any read.  A reordered schedule that reads the staging
    cell *before* that copy silently consumes garbage -- and the later
    copy into the (erased-pattern-unrelated) scratch cell must not be
    treated as making those earlier reads safe.  The original checker
    could not see this because callers had no way to declare scratch
    columns as garbage-holding; ``garbage_cols`` closes the hole.
    """

    @staticmethod
    def _reordered_evenodd_decode():
        """An EVENODD (0,1)-decode with the scratch-initialising copy
        deliberately moved after the first read of the scratch cell."""
        from repro.codes import make_code

        code = make_code("evenodd", 4, p=5)
        sched = code.build_decode_schedule((0, 1))
        scratch = code.n_cols
        ops = list(sched)
        first_write = next(
            i for i, op in enumerate(ops) if op.dst_col == scratch and op.copy
        )
        first_read = next(i for i, op in enumerate(ops) if op.src_col == scratch)
        moved = ops.pop(first_write)
        ops.insert(first_read, moved)
        bad = Schedule(sched.cols, sched.rows, ops)
        return code, bad

    def test_reordered_scratch_copy_rejected(self):
        code, bad = self._reordered_evenodd_decode()
        scratch = range(code.n_cols, code.total_cols)
        with pytest.raises(ScheduleViolation, match="scratch"):
            check_structure(bad, unreadable_cols=(0, 1), garbage_cols=scratch)

    def test_hole_without_declaration_documented(self):
        # Without garbage_cols the checker cannot know the scratch
        # column holds garbage: the reordered schedule passes.  This
        # documents why decode verification must declare scratch.
        code, bad = self._reordered_evenodd_decode()
        check_structure(bad, unreadable_cols=(0, 1))

    def test_symbolic_prover_catches_it_too(self):
        # The functional proof rejects the same mutant independently of
        # any declaration: garbage atoms reach the recovered cells.
        from repro.analysis.static import prove_decode

        code, bad = self._reordered_evenodd_decode()
        proof = prove_decode(code, (0, 1), bad)
        assert not proof.ok

    def test_pristine_schedule_passes_with_declaration(self):
        from repro.codes import make_code

        code = make_code("evenodd", 4, p=5)
        sched = code.build_decode_schedule((0, 1))
        check_structure(
            sched,
            unreadable_cols=(0, 1),
            garbage_cols=range(code.n_cols, code.total_cols),
        )
