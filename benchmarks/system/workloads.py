"""The system benchmark's three workloads and their seeded op streams.

Every workload drives the same stack -- :class:`ObjectGateway` over a
:class:`ClusterArray` over ``k + 2`` loopback :class:`StripNode`
servers, coded with ``liberation-optimal`` -- but each stresses a
different layer (see ``README.md`` for why each exists).  The op stream
of a run is a pure function of ``(workload, seed, stream id)``; how far
into it a closed-loop client gets depends on how fast the system is.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass

import numpy as np

from repro.codes import make_code

CODE = "liberation-optimal"


@dataclass(frozen=True)
class Geometry:
    """Code geometry plus array size."""

    k: int
    p: int
    element_size: int
    n_stripes: int

    def make_code(self):
        return make_code(CODE, self.k, p=self.p, element_size=self.element_size)

    @property
    def strip_bytes(self) -> int:
        # Liberation strips hold p elements.
        return self.p * self.element_size

    @property
    def stripe_bytes(self) -> int:
        """User payload bytes per stripe (parity excluded)."""
        return self.k * self.strip_bytes


def _small(n_stripes: int) -> Geometry:
    return Geometry(k=3, p=5, element_size=64, n_stripes=n_stripes)  # 960 B stripes


def _large(n_stripes: int) -> Geometry:
    return Geometry(k=6, p=7, element_size=4096, n_stripes=n_stripes)  # 168 KiB stripes


#: The percentile behind ``get_tail_ms`` and ``write_tail_ms``.  p99
#: would still leave ten samples beyond it in cold-mixed's best half,
#: but there it is mostly scheduling stalls: on a shared 2-vCPU VM, an
#: earlier cold-mixed's get p99 spread 45% from run to run, p90 3%.
TAIL = 0.90


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    ``rate`` set means an open loop (arrivals per second on an absolute
    schedule); ``None`` means ``clients`` closed-loop clients.  The
    ``write_op`` is what the ``write_*`` metrics time: the workload's
    characteristic state-changing operation.
    """

    name: str
    why: str
    geometry: Geometry
    n_objects: int
    object_size: int
    get_share: float
    put_share: float  # the rest are updates
    write_op: str  # "put" | "update" | "rebuild"
    rate: float | None = None
    clients: int = 2
    update_bytes: int = 64
    degraded: bool = False


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cold-mixed",
            why="open loop at 100 ops/s over 600 one-stripe objects, ~3% cache "
            "hits: client fan-out, connect, framing, node dispatch, RMW updates",
            geometry=_small(640),
            n_objects=600,
            object_size=960,
            get_share=0.50,
            put_share=0.10,
            write_op="update",
            rate=100.0,
        ),
        Workload(
            name="bulk-rw",
            why="1 MiB objects over 168 KiB stripes, half puts: bandwidth-bound "
            "full-stripe encode, large-payload CRC and disk copies both ways",
            geometry=_large(192),
            n_objects=24,
            object_size=1 << 20,
            get_share=0.50,
            put_share=0.50,
            write_op="put",
        ),
        Workload(
            name="degraded-rebuild",
            why="one data node down: every get decodes (paper Alg. 3/4), then 40% "
            "of the run rebuilds the column through BatchCoder; the only decoding workload",
            geometry=_large(192),
            n_objects=24,
            object_size=1 << 20,
            get_share=1.0,
            put_share=0.0,
            write_op="rebuild",
            degraded=True,
        ),
    )
}

#: Column the degraded workload loses (a data column, so every stripe
#: read decodes).
LOST_COLUMN = 1


def key_name(i: int) -> str:
    return f"obj{i:05d}"


@dataclass
class Op:
    kind: str  # "get" | "put" | "update"
    key: str
    data: bytes = b""
    offset: int = 0


class Payloads:
    """Object bodies: a few seeded random bases, each use stamped unique.

    Bodies of 1 MiB are too slow to draw per op inside a closed loop, so
    a put reuses a base and overwrites its first 8 bytes with a stamp
    unique to (stream, sequence number); the oracle can then tell every
    written version apart.
    """

    BASES = 4

    def __init__(self, seed: int, size: int) -> None:
        rng = np.random.default_rng([seed, size])
        self._bases = [rng.bytes(size) for _ in range(self.BASES)]

    def body(self, stream: int, seq: int) -> bytes:
        base = self._bases[seq % self.BASES]
        return struct.pack("<II", stream, seq) + base[8:]


#: Stream id of the preload bodies, distinct from every client stream.
PRELOAD_STREAM = 0xFFFF


class OpStream:
    """The seeded op sequence of one client (or of the open-loop schedule)."""

    def __init__(self, wl: Workload, seed: int, stream: int, payloads: Payloads) -> None:
        self.wl = wl
        self.stream = stream
        self.rng = random.Random(f"{wl.name}/{seed}/{stream}")
        self.payloads = payloads
        self.seq = 0

    def next(self) -> Op:
        wl, rng = self.wl, self.rng
        self.seq += 1
        key = key_name(rng.randrange(wl.n_objects))
        roll = rng.random()
        if roll < wl.get_share:
            return Op("get", key)
        if roll < wl.get_share + wl.put_share:
            return Op("put", key, self.payloads.body(self.stream, self.seq))
        span = min(wl.update_bytes, wl.object_size)
        offset = rng.randrange(wl.object_size - span + 1)
        return Op("update", key, rng.randbytes(span), offset)
