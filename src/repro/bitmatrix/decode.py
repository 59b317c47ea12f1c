"""Generic bit-matrix erasure decoding (the Jerasure baseline path).

Given up to two erased columns, the decoder

1. selects ``kw`` surviving rows of the full generator -- the data rows
   of every surviving data column, topped up with P rows and then Q rows
   as needed;
2. inverts that square GF(2) matrix (this is the "time consuming matrix
   operation" the paper's §IV-B blames for the original decoder's
   throughput collapse at large ``p``);
3. reads off, for every erased data bit, its expression over surviving
   bits, and lowers those rows to a schedule (dumb or smart);
4. re-encodes erased parity columns from the recovered data.

The resulting schedule reads only surviving cells and writes only erased
cells, so it can run in place on the damaged stripe.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.engine.ops import Schedule
from repro.gf.gf2 import gf2_inverse
from repro.bitmatrix.schedule import schedule_from_rows, _emit_chain
from repro.utils.validation import check_erasures

__all__ = ["decoding_rows", "bitmatrix_decode_schedule"]

Cell = tuple[int, int]


def decoding_rows(
    generator: np.ndarray,
    w: int,
    k: int,
    erased_data: Sequence[int],
    *,
    surviving_parities: Sequence[int] = (0, 1),
) -> tuple[np.ndarray, list[Cell], list[Cell]]:
    """Rows expressing the erased data bits over surviving bits.

    Returns ``(rows, dst_cells, src_cells)`` where ``rows`` is an
    ``(e*w) x (k*w)`` GF(2) matrix over the *surviving-bit* space whose
    coordinates correspond to ``src_cells`` (surviving data cells in
    column order, then the parity rows used), and ``dst_cells`` are the
    erased data cells in column order.

    ``surviving_parities`` lists which of P (0) and Q (1) survive; with
    ``e`` erased data columns, ``e`` parity strips are consumed (P
    first), and fewer surviving parities than erased data columns is a
    decoding failure by the Singleton bound.
    """
    erased_data = sorted(set(int(c) for c in erased_data))
    e = len(erased_data)
    if e == 0:
        raise ValueError("decoding_rows called with no erased data columns")
    if any(not 0 <= c < k for c in erased_data):
        raise ValueError(f"erased data columns {erased_data} out of range for k={k}")
    avail = sorted(set(int(x) for x in surviving_parities))
    if len(avail) < e:
        raise ValueError(
            f"{e} data columns erased but only parities {avail} survive: "
            "beyond RAID-6 tolerance"
        )

    surviving_data = [j for j in range(k) if j not in erased_data]
    use_parities = avail[:e]

    # Build the square "survivors" matrix B (kw x kw): B @ data = s,
    # where s stacks surviving data bits then the chosen parity bits.
    blocks = []
    src_cells: list[Cell] = []
    for j in surviving_data:
        block = np.zeros((w, k * w), dtype=np.uint8)
        block[:, j * w : (j + 1) * w] = np.eye(w, dtype=np.uint8)
        blocks.append(block)
        src_cells.extend((j, i) for i in range(w))
    for parity in use_parities:
        blocks.append(generator[parity * w : (parity + 1) * w])
        src_cells.extend((k + parity, i) for i in range(w))
    b = np.vstack(blocks)

    b_inv = gf2_inverse(b)  # data = B^-1 @ s

    # Select the rows of B^-1 for the erased data bits.
    sel = []
    dst_cells: list[Cell] = []
    for j in erased_data:
        sel.extend(range(j * w, (j + 1) * w))
        dst_cells.extend((j, i) for i in range(w))
    rows = b_inv[sel]
    return rows, dst_cells, src_cells


def bitmatrix_decode_schedule(
    generator: np.ndarray,
    w: int,
    k: int,
    erasures: Sequence[int],
    *,
    smart: bool = True,
    total_cols: int | None = None,
) -> Schedule:
    """Full decode schedule for up to two erased columns.

    Data columns are recovered via the inverted survivors matrix; erased
    parity columns are then re-encoded from data using the generator
    rows directly (data is fully known at that point).
    """
    n_cols = total_cols if total_cols is not None else k + 2
    ers = check_erasures(erasures, k + 2)
    erased_data = [c for c in ers if c < k]
    erased_parity = [c - k for c in ers if c >= k]
    surviving_parities = [x for x in (0, 1) if x not in erased_parity]

    sched = Schedule(n_cols, w)
    if erased_data:
        rows, dst_cells, src_cells = decoding_rows(
            generator, w, k, erased_data, surviving_parities=surviving_parities
        )
        part = schedule_from_rows(
            rows, dst_cells, src_cells, cols=n_cols, n_rows=w, smart=smart
        )
        sched.extend(part)

    # Re-encode any erased parity strips from (now complete) data.
    data_cells = [(j, i) for j in range(k) for i in range(w)]
    for parity in erased_parity:
        block = generator[parity * w : (parity + 1) * w]
        for i in range(w):
            srcs = [data_cells[j] for j in np.nonzero(block[i])[0]]
            _emit_chain(sched, (k + parity, i), srcs)
    return sched
