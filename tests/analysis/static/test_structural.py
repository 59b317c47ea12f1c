"""Tests for the structural (ordering) checker's own API.

End-to-end behaviour against real codes and the scratch-garbage
regression live in ``tests/engine/test_verify.py``; this file covers
the analyzer-native surface (``collect`` mode, per-cell garbage,
diagnostics wording).
"""

import pytest

from repro.analysis.static.structural import ScheduleViolation, check_structure
from repro.engine.ops import Schedule


def test_collect_gathers_all_violations():
    s = Schedule(3, 2)
    s.copy_cell((2, 0), (1, 0))  # read of unwritten garbage
    s.copy_cell((2, 1), (1, 1))  # and another
    problems = check_structure(s, unreadable_cols=[1], collect=True)
    assert len(problems) == 2
    assert all("reads unwritten" in msg for msg in problems)


def test_raises_on_first_without_collect():
    s = Schedule(3, 2)
    s.copy_cell((2, 0), (1, 0))
    with pytest.raises(ScheduleViolation):
        check_structure(s, unreadable_cols=[1])


def test_garbage_cells_are_cell_granular():
    s = Schedule(3, 2)
    s.copy_cell((2, 0), (1, 0))  # (1,0) is garbage: violation
    s.copy_cell((2, 1), (1, 1))  # (1,1) is fine
    problems = check_structure(s, garbage_cells=[(1, 0)], collect=True)
    assert len(problems) == 1 and "(1, 0)" in problems[0]


def test_diagnostics_name_the_garbage_kind():
    s = Schedule(4, 1)
    s.copy_cell((2, 0), (1, 0))
    s.copy_cell((1, 0), (3, 0))
    unread = check_structure(s, unreadable_cols=[1], collect=True)
    scratch = check_structure(s, garbage_cols=[1], collect=True)
    assert "unreadable column 1" in unread[0]
    assert "scratch" in scratch[0]


def test_write_legalises_later_reads_only():
    s = Schedule(3, 1)
    s.copy_cell((1, 0), (0, 0))
    s.copy_cell((2, 0), (1, 0))  # read strictly after the write: fine
    assert check_structure(s, unreadable_cols=[1], collect=True) == []


def test_empty_schedule_is_clean():
    assert check_structure(Schedule(2, 2), unreadable_cols=[0], collect=True) == []


def test_required_dsts_reported_with_examples():
    s = Schedule(3, 2)
    problems = check_structure(
        s, required_dsts=[(1, 0), (1, 1)], collect=True
    )
    assert len(problems) == 1 and "never writes 2 required" in problems[0]
