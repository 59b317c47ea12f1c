"""Trace-driven workload replay.

Replays I/O traces against a :class:`~repro.array.raid6.RAID6Array` and
aggregates the metrics the paper's evaluation cares about: how much
coding work (full-stripe encodes vs RMW updates vs degraded decodes)
a real access pattern induces, and the resulting read/write
amplification.

Trace format (one op per line, ``#`` comments allowed)::

    W <offset> <length> [seed]
    R <offset> <length>

so published block traces can be converted with a one-line awk script.
:func:`synthesize_trace` writes representative traces (sequential,
uniform-random, zipf-hotspot) for the examples and tests.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from collections.abc import Iterable, Iterator

import numpy as np

from repro.array.raid6 import RAID6Array
from repro.array.workloads import payload

__all__ = ["TraceOp", "ReplayStats", "parse_trace", "replay", "synthesize_trace"]


@dataclass(frozen=True)
class TraceOp:
    """One trace record."""

    kind: str  # "R" or "W"
    offset: int
    length: int
    seed: int = 0


@dataclass
class ReplayStats:
    """Aggregate outcome of a replay."""

    ops: int = 0
    reads: int = 0
    writes: int = 0
    user_bytes_read: int = 0
    user_bytes_written: int = 0
    disk_bytes_read: int = 0
    disk_bytes_written: int = 0
    full_stripe_writes: int = 0
    small_writes: int = 0
    degraded_reads: int = 0

    @property
    def write_amplification(self) -> float:
        if not self.user_bytes_written:
            return 0.0
        return self.disk_bytes_written / self.user_bytes_written

    @property
    def read_amplification(self) -> float:
        if not self.user_bytes_read:
            return 0.0
        return self.disk_bytes_read / self.user_bytes_read


def parse_trace(text: str | io.TextIOBase) -> Iterator[TraceOp]:
    """Parse the trace format (see module docstring)."""
    lines = text.splitlines() if isinstance(text, str) else text
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0].upper()
        if kind not in ("R", "W") or len(parts) < 3:
            raise ValueError(f"trace line {lineno}: malformed record {raw!r}")
        offset, length = int(parts[1]), int(parts[2])
        seed = int(parts[3]) if len(parts) > 3 else lineno
        if offset < 0 or length < 0:
            raise ValueError(f"trace line {lineno}: negative offset/length")
        yield TraceOp(kind, offset, length, seed)


def replay(array: RAID6Array, ops: Iterable[TraceOp]) -> ReplayStats:
    """Run a trace against an array, returning aggregate statistics.

    Offsets/lengths are clamped to the array's capacity so traces taken
    from larger devices still replay meaningfully.
    """
    stats = ReplayStats()
    base_stats = array.stats
    start_fsw = base_stats.full_stripe_writes
    start_small = base_stats.small_writes
    start_degraded = base_stats.degraded_reads
    start_read = sum(d.stats.bytes_read for d in array.disks)
    start_written = sum(d.stats.bytes_written for d in array.disks)

    cap = array.capacity
    for op in ops:
        offset = op.offset % cap
        length = min(op.length, cap - offset)
        if length <= 0:
            continue
        stats.ops += 1
        if op.kind == "R":
            array.read(offset, length)
            stats.reads += 1
            stats.user_bytes_read += length
        else:
            array.write(offset, payload(length, op.seed))
            stats.writes += 1
            stats.user_bytes_written += length

    stats.disk_bytes_read = sum(d.stats.bytes_read for d in array.disks) - start_read
    stats.disk_bytes_written = (
        sum(d.stats.bytes_written for d in array.disks) - start_written
    )
    stats.full_stripe_writes = base_stats.full_stripe_writes - start_fsw
    stats.small_writes = base_stats.small_writes - start_small
    stats.degraded_reads = base_stats.degraded_reads - start_degraded
    return stats


def synthesize_trace(
    kind: str,
    capacity: int,
    *,
    n_ops: int = 200,
    io_size: int = 4096,
    read_fraction: float = 0.5,
    seed: int = 0,
) -> str:
    """Generate a representative trace as text.

    ``kind``: ``sequential`` (streaming write then read-back),
    ``uniform`` (random offsets), or ``zipf`` (hot-spot skew).
    """
    rng = np.random.default_rng(seed)
    lines = [f"# synthetic '{kind}' trace, {n_ops} ops"]
    if kind == "sequential":
        pos = 0
        for i in range(n_ops):
            if pos + io_size > capacity:
                pos = 0
            lines.append(f"W {pos} {io_size} {i}")
            pos += io_size
    elif kind == "uniform":
        slots = max(1, capacity // io_size)
        for i in range(n_ops):
            off = int(rng.integers(0, slots)) * io_size
            op = "R" if rng.random() < read_fraction else "W"
            lines.append(f"{op} {off} {io_size} {i}")
    elif kind == "zipf":
        slots = max(1, capacity // io_size)
        ranks = np.minimum(rng.zipf(1.3, size=n_ops) - 1, slots - 1)
        perm = rng.permutation(slots)
        for i, r in enumerate(ranks):
            off = int(perm[int(r)]) * io_size
            op = "R" if rng.random() < read_fraction else "W"
            lines.append(f"{op} {off} {io_size} {i}")
    else:
        raise ValueError(f"unknown trace kind {kind!r}")
    return "\n".join(lines) + "\n"
