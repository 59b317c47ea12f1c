"""Symbolic GF(2) interpretation of XOR schedules.

A :class:`~repro.engine.ops.Schedule` is a straight-line program over
GF(2): every reachable cell value is the XOR of some subset of the
stripe's *initial* cell values.  That makes exact abstract
interpretation trivial -- represent each cell's state as the
``frozenset`` of initial-cell *atoms* whose GF(2) sum it holds, and
interpret

* ``dst <- src``        as  ``state[dst] = state[src]``
* ``dst <- dst ^ src``  as  ``state[dst] = state[dst] ^ state[src]``
  (symmetric difference -- terms appearing twice cancel, exactly as XOR
  does).

The result is not an approximation: the final symbolic state *is* the
schedule's semantics, so comparing it against a code family's parity
specification (:mod:`repro.analysis.static.spec`) proves functional
correctness for every input, without executing a single byte.

Atoms are ``(tag, col, row)`` tuples.  Tag ``"d"`` marks a meaningful
initial value (a data bit, or a parity bit a decoder may rely on); tag
``"g"`` marks *garbage* -- an erased strip's contents or an
uninitialised scratch cell.  Garbage atoms flow through the
interpretation like any other term, so a schedule whose output depends
on garbage is caught by the final spec comparison (the output set
contains a ``"g"`` atom), even when the garbage read is far from the
output it corrupts.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.engine.ops import Schedule

__all__ = [
    "Atom",
    "Expr",
    "Cell",
    "State",
    "data_atom",
    "garbage_atom",
    "is_garbage",
    "pristine_state",
    "symbolic_execute",
    "format_expr",
]

#: One initial cell value: ``(tag, col, row)`` with tag "d" or "g".
Atom = tuple[str, int, int]

#: A GF(2) expression: the set of atoms whose XOR the value equals.
Expr = frozenset  # frozenset[Atom]

#: A stripe cell address ``(col, row)``.
Cell = tuple[int, int]

#: Symbolic machine state: cell -> expression it currently holds.
State = dict[Cell, Expr]

#: The symbolic zero (empty XOR).
ZERO: Expr = frozenset()


def data_atom(col: int, row: int) -> Atom:
    """The atom for the meaningful initial content of ``(col, row)``."""
    return ("d", col, row)


def garbage_atom(col: int, row: int) -> Atom:
    """The atom for the garbage initial content of ``(col, row)``."""
    return ("g", col, row)


def is_garbage(atom: Atom) -> bool:
    return atom[0] == "g"


def pristine_state(
    cols: int,
    rows: int,
    *,
    garbage_cells: Iterable[Cell] = (),
    overrides: dict[Cell, Expr] | None = None,
) -> State:
    """The symbolic state of an untouched stripe.

    Every cell holds its own data atom, except ``garbage_cells`` (their
    own garbage atom) and ``overrides`` (an explicit expression -- e.g.
    a surviving parity cell holding its specification value).
    """
    garbage = set(garbage_cells)
    state: State = {}
    for col in range(cols):
        for row in range(rows):
            cell = (col, row)
            if cell in garbage:
                state[cell] = frozenset((garbage_atom(col, row),))
            else:
                state[cell] = frozenset((data_atom(col, row),))
    if overrides:
        for cell, expr in overrides.items():
            state[cell] = frozenset(expr)
    return state


def symbolic_execute(schedule: Schedule, state: State | None = None) -> State:
    """Interpret ``schedule`` over symbolic cell states.

    ``state`` defaults to :func:`pristine_state` of the schedule's
    shape (all cells meaningful).  The passed dict is not mutated; the
    returned dict is the final machine state.
    """
    if state is None:
        state = pristine_state(schedule.cols, schedule.rows)
    current = dict(state)
    for op in schedule:
        src = current[op.src]
        if op.copy:
            current[op.dst] = src
        else:
            current[op.dst] = current[op.dst] ^ src
    return current


def format_expr(expr: Expr, limit: int = 8) -> str:
    """Human-readable rendering of an expression (for diagnostics)."""
    if not expr:
        return "0"
    terms = sorted(expr)
    shown = [
        ("garbage" if tag == "g" else "b") + f"[c{col},r{row}]"
        for tag, col, row in terms[:limit]
    ]
    if len(terms) > limit:
        shown.append(f"... ({len(terms) - limit} more)")
    return " ^ ".join(shown)
