"""Text renderers for codeword geometry and schedule structure.

:func:`constraint_grid` reproduces the paper's Fig. 2/3 notation: each
data cell is labelled with its row-parity constraint (``1``-based
number, as in the paper) and the anti-diagonal constraints it belongs
to (capital letters, including extra-bit membership), e.g. ``3BC`` for
the cell that is in row constraint 3, native to anti-diagonal B, and
the extra bit of C.

:func:`schedule_stats` summarises an XOR program: op/XOR/copy counts,
the dependency *depth* (longest chain -- the serial latency floor) and
*width* (peak ops per level -- available parallelism).
"""

from __future__ import annotations

import string
from dataclasses import dataclass

from repro.core.geometry import LiberationGeometry
from repro.engine.ops import Schedule

__all__ = ["constraint_grid", "erasure_grid", "schedule_stats", "ScheduleStats"]


def _labels(geo: LiberationGeometry) -> list[list[str]]:
    letters = string.ascii_uppercase
    if geo.p > len(letters):
        raise ValueError(f"grid rendering supports p <= {len(letters)}")
    cells = []
    for i in range(geo.p):
        row = []
        for j in range(geo.k):
            tag = str(i + 1)  # the paper numbers row constraints from 1
            native = geo.anti_diag_of(i, j)
            memberships = {native}
            extra_d = geo.extra_diag_of_column(j) if j > 0 else None
            if extra_d is not None and geo.extra_bit(extra_d) == (i, j):
                memberships.add(extra_d)
            tag += "".join(letters[d] for d in sorted(memberships))
            row.append(tag)
        cells.append(row)
    return cells


def constraint_grid(geo: LiberationGeometry) -> str:
    """Fig. 2-style grid of row/anti-diagonal constraint membership."""
    cells = _labels(geo)
    letters = string.ascii_uppercase
    width = max(len(c) for row in cells for c in row) + 1
    header = "".join(str(j).ljust(width) for j in range(geo.k)) + "P".ljust(width) + "Q"
    lines = ["    " + header]
    for i in range(geo.p):
        body = "".join(cells[i][j].ljust(width) for j in range(geo.k))
        body += str(i + 1).ljust(width) + letters[i]
        lines.append(f"{i:<3} " + body)
    return "\n".join(lines) + "\n"


def erasure_grid(geo: LiberationGeometry, erasures) -> str:
    """The constraint grid with erased columns crossed out (Fig. 4)."""
    cells = _labels(geo)
    erased = set(erasures)
    letters = string.ascii_uppercase
    width = max(len(c) for row in cells for c in row) + 1
    for i in range(geo.p):
        for j in range(geo.k):
            if j in erased:
                cells[i][j] = "x" * len(cells[i][j])
    header = "".join(str(j).ljust(width) for j in range(geo.k)) + "P".ljust(width) + "Q"
    lines = ["    " + header]
    for i in range(geo.p):
        body = "".join(cells[i][j].ljust(width) for j in range(geo.k))
        p_tag = "x" if geo.p_col in erased else str(i + 1)
        q_tag = "x" if geo.q_col in erased else letters[i]
        body += p_tag.ljust(width) + q_tag
        lines.append(f"{i:<3} " + body)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ScheduleStats:
    """Structural summary of an XOR program."""

    ops: int
    xors: int
    copies: int
    depth: int  # longest dependency chain (critical path, in ops)
    width: int  # peak independent ops on one level
    destinations: int

    @property
    def parallelism(self) -> float:
        """Average available parallelism (ops / depth)."""
        return self.ops / self.depth if self.depth else 0.0


def schedule_stats(sched: Schedule) -> ScheduleStats:
    """Dependency depth/width analysis of a schedule.

    An op depends on the last writer of its source, and (for
    accumulates) the last writer of its destination; write-after-read
    and write-after-write are also ordered.  Level = 1 + max(dep
    levels).
    """
    write_level: dict[tuple[int, int], int] = {}
    touch_level: dict[tuple[int, int], int] = {}
    per_level: dict[int, int] = {}
    depth = 0
    for op in sched:
        lvl = 1 + max(
            write_level.get(op.src, 0),
            write_level.get(op.dst, 0) if not op.copy else 0,
            touch_level.get(op.dst, 0),
        )
        write_level[op.dst] = lvl
        touch_level[op.dst] = max(touch_level.get(op.dst, 0), lvl)
        touch_level[op.src] = max(touch_level.get(op.src, 0), lvl)
        per_level[lvl] = per_level.get(lvl, 0) + 1
        depth = max(depth, lvl)
    return ScheduleStats(
        ops=len(sched),
        xors=sched.n_xors,
        copies=sched.n_copies,
        depth=depth,
        width=max(per_level.values(), default=0),
        destinations=len(sched.destinations()),
    )
