"""Levelized bulk-XOR kernels: the native-speed schedule executor.

The streaming executor (:class:`~repro.engine.executor.StreamingSchedule`)
pays one NumPy call per scheduled op, so interpreter dispatch and index
arithmetic dominate at real element sizes.  This module lowers a
schedule to a short straight-line program of **contiguous-slice NumPy
calls** over the stripe buffer ``buf[cols, rows, words]``:

1. *Contribution levelization* (:func:`_levelize_ops`): every single
   XOR/copy hoists to the lowest dependency level its own hazards
   allow.  Levels are per op, not per destination: a decoder schedule
   interleaves syndrome building with its sequential recovery chain,
   and per-op levels let all the order-free syndrome work sink to
   level 1 where it can merge wide.
2. *Slice classing* (:func:`_class_runs`): within a level all
   accumulating contributions commute, so they regroup freely;
   contributions that share ``(dst_col, src_col, row_shift)`` and
   cover adjacent rows merge into one slice-wide XOR
   (``buf[dc, a:b] ^= buf[sc, a+s:b+s]`` -- the Liberation Q column's
   rotation structure produces exactly two such runs per source
   column).
3. *Reduce stacking* (:func:`_lower_level`): same-row-span runs from
   a *contiguous range of source columns* merge further into a single
   ``np.bitwise_xor.reduce`` over the 3-D block ``buf[c0:c1, a:b]``
   (the P column and the decoder's row syndromes are one call each).

Execution *binds* the plan to a stripe once -- every slice view is
materialised up front -- and then replays a tuple program whose only
per-step work is the NumPy call itself.  Plans keep a small bound-
program cache keyed by buffer identity (holding a strong reference, so
an id can never be reused while cached); repeated coding of the same
stripe buffer, the shape of every benchmark and of batch rebuild, pays
for binding once.

A plan also binds over a stripe given as its **columns**
(:func:`~repro.engine.executor.checked_columns`): one array per
column, ``None`` where the plan touches nothing.  A slice op then binds
to one column's rows, and a reduce over a block of columns -- separate
arrays now, with no 3-D block to reduce -- binds as a chain: a copy of
its first column (or an XOR, when it accumulates), then one XOR per
further column.  The lowering, and so the prover's proof of it, is the
same either way.  A degraded read decodes like this from the byte
(``uint8``) views of the reply frames its strips came in: they follow a
header of any length, so they are not word-aligned, and a chain over
unaligned ``uint64`` views runs about half as fast as over the same
bytes viewed as ``uint8``.  A column binding is never cached: the cache
would keep the frames alive.

Kernel programs slice the stripe axis-wise and therefore run
correctly (in place) on any stripe view, and on buffers with any
trailing shape beyond the first two axes.  That is what makes the
batch data plane zero-copy: :class:`repro.parallel.BatchCoder` binds
one plan over the transposed view ``batch.transpose(1, 2, 0, 3)`` of a
stripe-major batch as a pure view operation.

The lowering is *proved*, not trusted: ``compile_kernel(validate=True)``
replays the emitted slice program symbolically (see
:mod:`repro.analysis.static.symbolic`) and compares the complete final
state against the source schedule's, and every compile -- validated or
not -- asserts that the plan's total cell-XOR work equals the
schedule's ``n_xors`` (the paper's complexity accounting survives the
lowering bit-for-bit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import overload

import numpy as np

from repro.engine.executor import Columns, checked_columns
from repro.engine.ops import Schedule
from repro.engine.verify import ScheduleViolation
from repro.obs.tracing import active_tracer

__all__ = ["KernelOp", "KernelPlan", "compile_kernel"]

#: Minimum source-column count worth a 3-D reduce (at 3 columns a
#: reduce already wins on both call count and memory traffic: the
#: destination slice is read and written once instead of per column).
_MIN_REDUCE = 3

# Bound-program opcodes (see KernelPlan.bind).
_OP_XOR = 0  # a ^= b
_OP_COPY = 1  # a[...] = b
_OP_REDUCE = 2  # b[...] = xor-reduce(a, axis=0)
_OP_REDUCE_ACC = 3  # b ^= xor-reduce(a, axis=0)  (via workspace c)


@dataclass(frozen=True)
class KernelOp:
    """One bulk operation over row slices of stripe columns.

    ``kind`` is ``"xor"`` / ``"copy"`` (slice op: destination rows
    ``[dst_lo, dst_hi)`` of ``dst_col`` against source rows
    ``[src_lo, src_hi)`` of ``src_col``) or ``"reduce"`` (XOR-reduce of
    the block ``buf[src_col:src_col_hi, dst_lo:dst_hi]`` into the
    destination slice; ``init`` overwrites, otherwise accumulates).
    """

    kind: str
    dst_col: int
    dst_lo: int
    dst_hi: int
    src_col: int
    src_lo: int
    src_hi: int
    src_col_hi: int = 0  # reduce only: exclusive end of the source-column range
    init: bool = False

    @property
    def height(self) -> int:
        """Destination rows covered (slice width of the bulk call)."""
        return self.dst_hi - self.dst_lo

    @property
    def n_sources(self) -> int:
        return (self.src_col_hi - self.src_col) if self.kind == "reduce" else 1

    @property
    def cell_xors(self) -> int:
        """XOR work in schedule accounting (copies are free)."""
        if self.kind == "copy":
            return 0
        if self.kind == "xor":
            return self.height
        per_row = self.n_sources - 1 if self.init else self.n_sources
        return per_row * self.height

    @property
    def width(self) -> int:
        """Cells combined by this single call (the bulk-XOR width)."""
        return self.height * (self.n_sources + (0 if self.init else 1))

    def __str__(self) -> str:
        if self.kind == "reduce":
            op = "<-" if self.init else "^="
            return (
                f"b[c{self.dst_col},r{self.dst_lo}:{self.dst_hi}] {op} "
                f"reduce(b[c{self.src_col}:{self.src_col_hi},"
                f"r{self.dst_lo}:{self.dst_hi}])"
            )
        op = "<-" if self.kind == "copy" else "^="
        return (
            f"b[c{self.dst_col},r{self.dst_lo}:{self.dst_hi}] {op} "
            f"b[c{self.src_col},r{self.src_lo}:{self.src_hi}]"
        )


class KernelPlan:
    """A schedule lowered to a straight-line slice-XOR program.

    Build with :func:`compile_kernel`; execute with :meth:`run` (which
    binds views to the buffer and caches the bound program), or bind
    explicitly with :meth:`bind` and replay via :meth:`execute`.  Both
    take a stripe buffer or the stripe given as its columns.
    """

    #: bound-program cache entries kept (strong refs to their buffers).
    _CACHE_SIZE = 4

    def __init__(
        self, cols: int, rows: int, ops: list[KernelOp], *, n_levels: int
    ) -> None:
        self.cols = cols
        self.rows = rows
        self.ops: tuple[KernelOp, ...] = tuple(ops)
        self.n_levels = n_levels
        self.n_cell_xors = sum(op.cell_xors for op in self.ops)
        self.max_width = max((op.width for op in self.ops), default=0)
        #: NumPy calls per execution (an accumulating reduce costs two).
        self.n_calls = sum(
            2 if (op.kind == "reduce" and not op.init) else 1 for op in self.ops
        )
        self._needs_ws = any(op.kind == "reduce" and not op.init for op in self.ops)
        #: the columns the program writes, and those it reads
        self._writes = {op.dst_col for op in self.ops}
        self._reads = {
            col
            for op in self.ops
            for col in (
                range(op.src_col, op.src_col_hi) if op.kind == "reduce" else (op.src_col,)
            )
        }
        self._check_op_aliasing()
        self._bound: dict[int, tuple[np.ndarray, list[tuple]]] = {}

    # -- compile-time safety ------------------------------------------------

    def _check_op_aliasing(self) -> None:
        """Reject any op whose destination slice overlaps its own source.

        Levelization guarantees this never happens for a correct
        lowering; the check makes the in-place NumPy calls (undefined
        on overlapping views) *and* the sequential per-cell semantics
        used by the symbolic validator sound by construction.
        """
        for op in self.ops:
            if op.kind == "reduce":
                if op.src_col <= op.dst_col < op.src_col_hi:
                    raise ScheduleViolation(
                        f"kernel reduce reads its own destination column: {op}"
                    )
            elif op.dst_col == op.src_col and (
                op.src_lo < op.dst_hi and op.dst_lo < op.src_hi
            ):
                raise ScheduleViolation(
                    f"kernel slice op aliases source and destination: {op}"
                )

    # -- binding / execution ------------------------------------------------

    def _check(self, buf: np.ndarray) -> None:
        # Any trailing shape works: ops slice axes 0-1 only, so a plan
        # runs unchanged over one stripe ``(cols, rows, words)``, a
        # word-packed batch ``(cols, rows, n*words)``, or a zero-copy
        # transposed view of a stripe-major batch ``(cols, rows, n,
        # words)`` -- the multi-stripe data plane needs no recompile.
        if buf.ndim < 3 or buf.shape[:2] != (self.cols, self.rows):
            raise ValueError(
                f"stripe shape {buf.shape} does not match kernel plan "
                f"({self.cols}, {self.rows}, words...)"
            )

    def bind(self, buf: np.ndarray | Columns) -> list[tuple]:
        """Materialise the plan's slice views against ``buf``.

        Returns the bound program: a list of opcode tuples replayed by
        :meth:`execute`.  Valid for as long as ``buf`` is alive; the
        views alias ``buf``, so execution mutates it in place.

        ``buf`` may be the stripe given as its columns: each slice op
        then binds to one column's rows, and a reduce over separate
        columns binds as a copy-then-XOR chain (an XOR chain when it
        accumulates).  Raises :class:`ValueError` if an op touches a
        column that was not supplied, or writes one that is read-only.
        """
        if not isinstance(buf, np.ndarray):
            return self._bind_columns(buf)
        self._check(buf)
        ws = (
            np.empty((self.rows,) + buf.shape[2:], dtype=buf.dtype)
            if self._needs_ws
            else None
        )
        prog: list[tuple] = []
        for op in self.ops:
            dst = buf[op.dst_col, op.dst_lo : op.dst_hi]
            if op.kind == "reduce":
                block = buf[op.src_col : op.src_col_hi, op.dst_lo : op.dst_hi]
                if op.init:
                    prog.append((_OP_REDUCE, block, dst))
                else:
                    assert ws is not None
                    prog.append((_OP_REDUCE_ACC, block, dst, ws[: op.height]))
            else:
                src = buf[op.src_col, op.src_lo : op.src_hi]
                code = _OP_COPY if op.kind == "copy" else _OP_XOR
                prog.append((code, dst, src))
        return prog

    def _bind_columns(self, columns: Columns) -> list[tuple]:
        cols = checked_columns(
            columns, self.cols, self.rows, reads=self._reads, writes=self._writes
        )
        prog: list[tuple] = []
        for op in self.ops:
            dst = _rows(cols[op.dst_col], op.dst_lo, op.dst_hi)
            if op.kind == "reduce":
                first = op.src_col
                if op.init:
                    prog.append((_OP_COPY, dst, _rows(cols[first], op.dst_lo, op.dst_hi)))
                    first += 1
                prog.extend(
                    (_OP_XOR, dst, _rows(cols[col], op.dst_lo, op.dst_hi))
                    for col in range(first, op.src_col_hi)
                )
            else:
                src = _rows(cols[op.src_col], op.src_lo, op.src_hi)
                prog.append((_OP_COPY if op.kind == "copy" else _OP_XOR, dst, src))
        return prog

    @staticmethod
    def execute(prog: list[tuple]) -> None:
        """Replay a bound program (all state lives in the views)."""
        xor = np.bitwise_xor
        reduce_ = np.bitwise_xor.reduce
        copyto = np.copyto
        for step in prog:
            code = step[0]
            if code == _OP_XOR:
                xor(step[1], step[2], step[1])
            elif code == _OP_COPY:
                copyto(step[1], step[2])
            elif code == _OP_REDUCE:
                reduce_(step[1], 0, None, step[2])
            else:
                ws = step[3]
                reduce_(step[1], 0, None, ws)
                xor(step[2], ws, step[2])

    @overload
    def run(self, buf: np.ndarray) -> np.ndarray: ...

    @overload
    def run(self, buf: Columns) -> Columns: ...

    def run(self, buf: np.ndarray | Columns) -> np.ndarray | Columns:
        """Execute over ``buf[cols, rows, words]``, or over the stripe
        given as its columns, in place.

        A buffer's bound program is cached per buffer identity (a few
        entries, holding the buffer alive so the id cannot be recycled);
        coding the same stripe buffer repeatedly binds once.  A column
        binding is used once and dropped, so the columns (views of reply
        frames, on a degraded read) die with their caller.
        """
        if not isinstance(buf, np.ndarray):
            self.execute(self._bind_columns(buf))
            return buf
        key = id(buf)
        entry = self._bound.get(key)
        if entry is None or entry[0] is not buf:
            prog = self.bind(buf)
            if len(self._bound) >= self._CACHE_SIZE:
                self._bound.pop(next(iter(self._bound)))
            self._bound[key] = (buf, prog)
        else:
            prog = entry[1]
        self.execute(prog)
        return buf

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Span/report attributes describing the lowered program."""
        return {
            "levels": self.n_levels,
            "bulk_calls": self.n_calls,
            "kernel_ops": len(self.ops),
            "max_width": self.max_width,
            "cell_xors": self.n_cell_xors,
        }

    def __repr__(self) -> str:
        return (
            f"KernelPlan(cols={self.cols}, rows={self.rows}, "
            f"ops={len(self.ops)}, calls={self.n_calls}, "
            f"levels={self.n_levels}, cell_xors={self.n_cell_xors})"
        )


def _rows(column: np.ndarray | None, lo: int, hi: int) -> np.ndarray:
    """Rows ``[lo, hi)`` of a supplied column (checked by
    :func:`~repro.engine.executor.checked_columns`)."""
    assert column is not None
    return column[lo:hi]


# -- lowering ---------------------------------------------------------------


#: One merged slice run: ``(dst_col, src_col, shift, dr0, dr1)`` --
#: rows ``[dr0, dr1)`` of ``dst_col`` against rows ``[dr0+shift,
#: dr1+shift)`` of ``src_col``.
_Run = tuple[int, int, int, int, int]


def _class_runs(contribs: list[tuple[int, int]], rows: int) -> list[_Run]:
    """Merge ``(dst_flat, src_flat)`` pairs into maximal slice runs.

    Pairs are grouped by ``(dst_col, src_col, shift)`` -- the slice
    *class* -- and adjacent destination rows within a class coalesce.
    Same-column classes split whenever the run would grow tall enough
    for its destination and source intervals to overlap (the in-place
    slice call would alias).  Duplicate rows (a source XOR'd twice into
    one destination, which cancels) start a fresh run, preserving the
    schedule's exact XOR work.
    """
    classes: dict[tuple[int, int, int], list[int]] = {}
    for dst, src in contribs:
        dc, dr = divmod(dst, rows)
        sc, sr = divmod(src, rows)
        classes.setdefault((dc, sc, sr - dr), []).append(dr)
    runs: list[_Run] = []
    for (dc, sc, shift), drs in sorted(classes.items()):
        drs.sort()
        dr0 = prev = drs[0]
        for dr in drs[1:]:
            grow = dr == prev + 1 and (dc != sc or abs(shift) >= dr + 1 - dr0)
            if not grow:
                runs.append((dc, sc, shift, dr0, prev + 1))
                dr0 = dr
            prev = dr
        runs.append((dc, sc, shift, dr0, prev + 1))
    return runs


def _slice_op(run: _Run, *, init: bool) -> KernelOp:
    dc, sc, shift, dr0, dr1 = run
    return KernelOp(
        "copy" if init else "xor",
        dc,
        dr0,
        dr1,
        sc,
        dr0 + shift,
        dr1 + shift,
        init=init,
    )


#: Cost-model weight of one cell-pass of memory traffic relative to
#: one NumPy call.  Calibrated for the batched multi-stripe regime the
#: data plane runs in (where traffic dominates, ~0.9 measured at batch
#: width 4); single-stripe runs are call-dominated (~0.05) but lose
#: only a few percent under this weighting, while batched throughput
#: gains ~10%.  Rectangles must pay their way under this weight before
#: the peeler accepts them.
_TRAFFIC_WEIGHT = 0.8


def _n_segments(cells: set[tuple[int, int]]) -> int:
    """Vertical contiguous-run count of a ``(src_col, dst_row)`` grid."""
    return sum(1 for c, r in cells if (c, r - 1) not in cells)


def _best_rect(cells: set[tuple[int, int]]) -> tuple[int, int, int, int] | None:
    """Highest-gain all-present rectangle ``(sc0, sc1, dr0, dr1)``.

    ``cells`` holds ``(src_col, dst_row)`` points; a rectangle is a
    consecutive column range x consecutive row range fully covered by
    points, at least :data:`_MIN_REDUCE` columns wide.  Candidates are
    scored by the cost they remove: the slice runs they absorb (minus
    the two calls an accumulating reduce spends) plus the memory-
    traffic delta -- a reduce reads the block once and touches its
    destination once (``(m + 2) * h`` cell-passes) where per-column
    slice runs pay ``3 * m * h``.  Peeling is refused entirely when no
    candidate has positive gain, so a rectangle can never fragment the
    remaining grid into something more expensive than leaving the runs
    alone.  Grids are at most ``cols x rows`` cells, so the quadratic
    scan is trivially cheap at compile time.
    """
    base_segments = _n_segments(cells)
    best: tuple[int, int, int, int] | None = None
    best_gain = 0.0
    for sc0, dr0 in cells:
        sc1 = sc0
        while (sc1 + 1, dr0) in cells:
            sc1 += 1
        for hi in range(sc0 + _MIN_REDUCE - 1, sc1 + 1):
            dr1 = dr0
            while all((c, dr1 + 1) in cells for c in range(sc0, hi + 1)):
                dr1 += 1
            m = hi + 1 - sc0
            h = dr1 + 1 - dr0
            remaining = cells - {
                (c, r) for c in range(sc0, hi + 1) for r in range(dr0, dr1 + 1)
            }
            calls_saved = base_segments - _n_segments(remaining) - 2
            passes_saved = 3 * m * h - (m + 2) * h
            gain = calls_saved + _TRAFFIC_WEIGHT * passes_saved
            if gain > best_gain:
                best_gain = gain
                best = (sc0, hi + 1, dr0, dr1 + 1)
    return best


def _lower_level(contribs: list[tuple[int, int, bool]], rows: int) -> list[KernelOp]:
    """Lower one level of ``(dst, src, is_copy)`` contributions.

    Within a level every source is a pre-level value and (apart from
    each destination's own in-place accumulation) no cell is both read
    and written, so all accumulating contributions commute; only each
    destination's *initial* copy must run first.  That freedom is the
    whole optimisation: contributions regroup by slice class regardless
    of their schedule positions.

    Same-row (shift-0) contributions get a further rectangle pass: per
    destination column, the ``(src_col, dst_row)`` grid is greedily
    peeled into maximal all-present rectangles of consecutive source
    columns, each a single 3-D ``np.bitwise_xor.reduce`` over
    ``buf[c0:c1, a:b]``.  A reduce touches its destination once instead
    of once per column, which cuts memory traffic by ~3x on top of the
    call-count win -- the dominant effect once plans run over batched
    (multi-stripe) word axes.  An initial copy whose class directly
    precedes a rectangle is folded in as an overwriting reduce (one
    call computes a whole decoder row syndrome).  Whatever the
    rectangle pass leaves, and every shifted (diagonal) contribution,
    lowers to merged slice runs via :func:`_class_runs`.
    """
    init_runs = _class_runs([(d, s) for d, s, is_copy in contribs if is_copy], rows)

    # Split the accumulates: shift-0 cross-column contributions go into
    # per-destination-column grids for the rectangle pass; everything
    # else (diagonals, same-column) lowers as slice runs.  Duplicate
    # grid cells (a source XOR'd twice -- cancelling work the schedule
    # really performs) stay out of the grid beyond the first instance.
    grids: dict[int, set[tuple[int, int]]] = {}
    shifted: list[tuple[int, int]] = []
    for d, s, is_copy in contribs:
        if is_copy:
            continue
        dc, dr = divmod(d, rows)
        sc, sr = divmod(s, rows)
        if sr == dr and sc != dc:
            cell = (sc, dr)
            grid = grids.setdefault(dc, set())
            if cell in grid:
                shifted.append((d, s))
            else:
                grid.add(cell)
        else:
            shifted.append((d, s))

    ops: list[KernelOp] = []

    # Initial copies -- folded into an overwriting reduce when the grid
    # continues their class over at least two following columns.
    for run in init_runs:
        dc, sc, shift, dr0, dr1 = run
        grid = grids.get(dc, set())
        length = 0
        if shift == 0:
            while all(
                (sc + 1 + length, r) in grid for r in range(dr0, dr1)
            ):
                length += 1
        if length >= 2:
            for c in range(sc + 1, sc + 1 + length):
                for r in range(dr0, dr1):
                    grid.remove((c, r))
            ops.append(
                KernelOp(
                    "reduce",
                    dc,
                    dr0,
                    dr1,
                    sc,
                    dr0,
                    dr1,
                    src_col_hi=sc + 1 + length,
                    init=True,
                )
            )
        else:
            ops.append(_slice_op(run, init=True))

    # Greedy rectangle peeling, largest first.
    leftovers: list[tuple[int, int]] = []
    for dc in sorted(grids):
        grid = grids[dc]
        while grid:
            rect = _best_rect(grid)
            if rect is None:
                break
            sc0, sc1, dr0, dr1 = rect
            for c in range(sc0, sc1):
                for r in range(dr0, dr1):
                    grid.remove((c, r))
            ops.append(
                KernelOp(
                    "reduce", dc, dr0, dr1, sc0, dr0, dr1,
                    src_col_hi=sc1, init=False,
                )
            )
        leftovers.extend((dc * rows + r, c * rows + r) for c, r in grid)

    ops.extend(
        _slice_op(run, init=False)
        for run in _class_runs(shifted + leftovers, rows)
    )
    return ops


def compile_kernel(schedule: Schedule, *, validate: bool = False) -> KernelPlan:
    """Lower ``schedule`` to a :class:`KernelPlan` (see module docstring).

    Always asserts XOR-work conservation (plan cell-XORs == schedule
    ``n_xors``); with ``validate=True`` additionally proves the emitted
    slice program cell-for-cell equivalent to the schedule by symbolic
    execution, raising :class:`~repro.engine.verify.ScheduleViolation`
    on any divergence.
    """
    tracer = active_tracer()
    if tracer is not None:
        with tracer.span(
            "engine.compile",
            ops=len(schedule),
            xors=schedule.n_xors,
            kernel=True,
            validate=validate,
        ):
            return _lower(schedule, validate=validate)
    return _lower(schedule, validate=validate)


def _levelize_ops(schedule: Schedule) -> dict[int, list[tuple[int, int, bool]]]:
    """Assign a dependency level to every *contribution* of the schedule.

    Each op hoists to the lowest level consistent with its own hazards
    (not its destination's), so e.g. decoder
    syndrome accumulations all land in level 1 -- where they merge into
    wide slice classes -- even though the schedule interleaves them with
    the sequential recovery chain.  Hazard state per flat cell:

    * ``wl[c]`` -- level of the last write (RAW: readers go above it);
    * ``rl[c]`` -- highest level reading ``c`` (WAR: writers go above
      it, which also preserves the schedule's deliberate reads of
      *partially built* syndromes: contributions after such a read start
      a new accumulation epoch strictly above the reader);
    * ``epoch[c]`` -- level of ``c``'s current accumulation epoch;
      accumulates may share a level because they commute.

    Consequence (the contract :func:`_lower_level` relies on): within a
    level no cell is both read and written, except each destination's
    own in-place accumulation.

    A second, slack-driven pass then *delays* contributions to line up
    slice classes (see :func:`_align_classes`): an accumulate whose
    source is never written anywhere in the schedule may run at any
    level between its ASAP level and the level just below the next read
    of (or copy over) its destination -- all such contributions commute
    and their sources are immutable, so only the destination's own
    read/write sequence constrains them.  Within each slice class,
    adjacent rows whose windows intersect are pinned to one common
    level, turning e.g. a P-syndrome class split by the recovery
    chain's partial-value reads back into a handful of tall runs.
    """
    rows = schedule.rows
    wl: dict[int, int] = {}
    rl: dict[int, int] = {}
    epoch: dict[int, int] = {}
    recs: list[tuple[int, int, bool, int]] = []  # (dst, src, is_copy, asap)
    for op in schedule:
        d = op.dst_col * rows + op.dst_row
        s = op.src_col * rows + op.src_row
        if op.copy:
            lvl = max(wl.get(s, 0) + 1, rl.get(d, 0) + 1, wl.get(d, 0) + 1)
        else:
            lvl = max(epoch.get(d, 1), wl.get(s, 0) + 1, rl.get(d, 0) + 1)
        epoch[d] = lvl
        wl[d] = lvl
        rl[s] = max(rl.get(s, 0), lvl)
        recs.append((d, s, op.copy, lvl))

    levels = _align_classes(recs, rows)
    by_level: dict[int, list[tuple[int, int, bool]]] = {}
    for (d, s, is_copy, _), lvl in zip(recs, levels):
        by_level.setdefault(lvl, []).append((d, s, is_copy))
    return by_level


def _align_classes(recs: list[tuple[int, int, bool, int]], rows: int) -> list[int]:
    """Choose a final level per contribution, delaying to align classes.

    ``recs`` is the program-ordered ``(dst, src, is_copy, asap)`` list.
    A contribution is *relocatable* when it is an accumulate whose
    source cell is never written in the schedule: its read is then
    timeless, every sibling accumulate into the same destination
    commutes with it, and the only hard deadline is the next event that
    observes or overwrites the destination (a read of the completed
    epoch, or a fresh copy).  Delaying such a contribution anywhere up
    to that deadline leaves every other op's hazard analysis intact --
    readers were already forced above the destination's *ASAP* writes,
    which the deadline is derived from.

    Relocation is then a windowing problem per slice class
    ``(dst_col, src_col, shift)``: walk the class's rows in order and
    keep a running ``[lo, hi]`` window intersection; while adjacent
    rows keep the intersection non-empty they are assigned one common
    level, so the later run-merging pass sees them as a single slice.
    Fixed contributions join the walk with the degenerate window
    ``[asap, asap]``.
    """
    written = {d for d, _, _, _ in recs}
    max_lvl = max((lvl for *_, lvl in recs), default=1)
    horizon = max_lvl + 1

    # Deadline pass (reverse program order): the nearest following read
    # of / copy over each cell, by ASAP level.  Reads performed by
    # relocatable contributions never target written cells, so every
    # deadline here comes from an op whose level is final.
    deadline: list[int] = [0] * len(recs)
    nxt: dict[int, int] = {}
    for i in range(len(recs) - 1, -1, -1):
        d, s, is_copy, lvl = recs[i]
        deadline[i] = nxt.get(d, horizon) - 1
        nxt[s] = min(nxt.get(s, horizon), lvl)
        if is_copy:
            nxt[d] = min(nxt.get(d, horizon), lvl)

    levels = [lvl for *_, lvl in recs]
    classes: dict[tuple[int, int, int], list[tuple[int, int, int, int]]] = {}
    for i, (d, s, is_copy, lvl) in enumerate(recs):
        dc, dr = divmod(d, rows)
        sc, sr = divmod(s, rows)
        hi = deadline[i] if (not is_copy and s not in written) else lvl
        classes.setdefault((dc, sc, sr - dr), []).append((dr, lvl, hi, i))

    for members in classes.values():
        members.sort()
        run: list[int] = []
        lo = hi = 0
        prev_row = -2
        for row, mlo, mhi, idx in members:
            if row == prev_row + 1 and max(lo, mlo) <= min(hi, mhi):
                lo, hi = max(lo, mlo), min(hi, mhi)
            else:
                for j in run:
                    levels[j] = lo
                run = []
                lo, hi = mlo, mhi
            run.append(idx)
            prev_row = row
        for j in run:
            levels[j] = lo
    return levels


def _lower(schedule: Schedule, *, validate: bool) -> KernelPlan:
    by_level = _levelize_ops(schedule)
    ops: list[KernelOp] = []
    for lvl in sorted(by_level):
        ops.extend(_lower_level(by_level[lvl], schedule.rows))
    plan = KernelPlan(schedule.cols, schedule.rows, ops, n_levels=len(by_level))
    if plan.n_cell_xors != schedule.n_xors:
        raise ScheduleViolation(
            f"kernel lowering changed the XOR work: schedule has "
            f"{schedule.n_xors} XORs, kernel program performs "
            f"{plan.n_cell_xors}"
        )
    if validate:
        _validate_kernel(schedule, plan)
    return plan


def _validate_kernel(schedule: Schedule, plan: KernelPlan) -> None:
    """Symbolically prove the kernel program equivalent to the schedule.

    The emitted op list is interpreted sequentially over a pristine
    symbolic stripe.  Per-op sequential cell interpretation is exact
    because :meth:`KernelPlan._check_op_aliasing` already rejected any
    op whose destination overlaps its own source.
    """
    # Imported lazily: the static-analysis package imports the code
    # families, which import repro.engine -- a module-level import here
    # would close that cycle during package initialisation.
    from repro.analysis.static.symbolic import (
        format_expr,
        pristine_state,
        symbolic_execute,
    )

    want = symbolic_execute(schedule)
    state = pristine_state(schedule.cols, schedule.rows)
    for op in plan.ops:
        if op.kind == "reduce":
            for r in range(op.dst_lo, op.dst_hi):
                acc = frozenset() if op.init else state[(op.dst_col, r)]
                for c in range(op.src_col, op.src_col_hi):
                    acc = acc ^ state[(c, r)]
                state[(op.dst_col, r)] = acc
        else:
            shift = op.src_lo - op.dst_lo
            for r in range(op.dst_lo, op.dst_hi):
                src = state[(op.src_col, r + shift)]
                if op.kind == "copy":
                    state[(op.dst_col, r)] = src
                else:
                    state[(op.dst_col, r)] = state[(op.dst_col, r)] ^ src
    for cell in sorted(want):
        if state[cell] != want[cell]:
            raise ScheduleViolation(
                f"kernel lowering diverges at cell (c{cell[0]},r{cell[1]}): "
                f"schedule computes {format_expr(want[cell])}, "
                f"kernel computes {format_expr(state[cell])}"
            )
