"""Fault-injection campaigns.

Thin orchestration over the per-disk fault hooks: deterministic,
seedable scenarios used by the examples and the failure-injection
tests (double failures during rebuild, latent errors surfacing during
recovery -- the §I motivation for RAID-6 -- and silent corruption for
the scrubber).

:class:`NetworkFaultPlan` extends the same vocabulary to the
*distributed* array (:mod:`repro.cluster`): instead of a disk
misbehaving, a node's network service does -- added latency, dropped
connections mid-frame, corrupted frames, transient I/O errors.  The
plan is a plain dataclass so tests can install it directly on an
in-process :class:`~repro.cluster.node.StripNode` or ship it over the
wire via the ``fault`` verb.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.array.raid6 import RAID6Array

__all__ = ["ALWAYS", "FaultInjector", "InjectionLog", "NetworkFaultPlan"]

#: Sentinel count meaning "every request", forever.
ALWAYS = -1


@dataclass
class NetworkFaultPlan:
    """Injectable misbehaviour of one node's data plane.

    Counted fields are budgets: ``0`` disables the fault, ``n > 0``
    applies it to the next ``n`` data requests, :data:`ALWAYS` (-1)
    applies it unconditionally.  Control verbs (``stats``, ``fault``,
    ``shutdown``) are never faulted, so an operator can always reach a
    sick node.
    """

    #: seconds of artificial service delay per data request
    latency: float = 0.0
    #: how many data requests the latency applies to: ``0`` means every
    #: one (the historical behaviour), ``n > 0`` only the next ``n``
    #: (a transient slow spell -- what hedged reads are for)
    slow_requests: int = 0
    #: reply with an ``io-error`` instead of serving
    fail_requests: int = 0
    #: close the connection after sending half of the reply frame
    drop_mid_frame: int = 0
    #: flip the middle byte of the reply frame: the frame CRC fails, or,
    #: in a ``get`` reply's strips, that strip's CRC -- the client sees
    #: a checksum failure, never silent corruption
    corrupt_frames: int = 0

    def consume(self, kind: str) -> bool:
        """Whether fault ``kind`` fires now (decrements finite budgets)."""
        budget = getattr(self, kind)
        if budget == 0:
            return False
        if budget > 0:
            setattr(self, kind, budget - 1)
        return True

    def latency_applies(self) -> bool:
        """Whether this data request pays the latency penalty.

        With ``slow_requests == 0`` latency is unconditional; a positive
        budget slows only that many requests (hedge fodder).  When the
        budget runs out the slow spell is over: the latency clears
        itself, rather than reverting to unconditional.
        """
        if self.slow_requests == 0:
            return True
        if self.slow_requests > 0:
            self.slow_requests -= 1
            if self.slow_requests == 0:
                self.latency = 0.0  # spell spent
            return True
        return True  # ALWAYS

    def to_header(self) -> dict:
        """Wire form for the ``fault`` verb."""
        return {
            "latency": self.latency,
            "slow_requests": self.slow_requests,
            "fail_requests": self.fail_requests,
            "drop_mid_frame": self.drop_mid_frame,
            "corrupt_frames": self.corrupt_frames,
        }

    @classmethod
    def from_header(cls, header: dict) -> "NetworkFaultPlan":
        return cls(
            latency=float(header.get("latency", 0.0)),
            slow_requests=int(header.get("slow_requests", 0)),
            fail_requests=int(header.get("fail_requests", 0)),
            drop_mid_frame=int(header.get("drop_mid_frame", 0)),
            corrupt_frames=int(header.get("corrupt_frames", 0)),
        )

    @classmethod
    def slow_spell(cls, rng, timeout: float) -> "NetworkFaultPlan":
        """The next data request waits 1.5-2.5 times ``timeout``, a
        client's per-attempt timeout: the client gives up on it and
        retries, and the first attempt wakes after the retry landed."""
        return cls(latency=timeout * (1.5 + rng.random()), slow_requests=1)

    @classmethod
    def random(cls, rng, *, persistent: bool = True, timeout: float) -> "NetworkFaultPlan":
        """A seeded random plan (the sim fuzzer's fault vocabulary).

        ``persistent`` plans poison every data request (:data:`ALWAYS`
        budgets / latency far beyond any sane timeout), making the
        column a deterministic loss; transient plans use finite budgets
        a retry policy is expected to absorb, one of them a
        :meth:`slow_spell` past the per-attempt ``timeout``.  ``rng`` is
        a ``random.Random`` so the same seed always yields the same
        plan.
        """
        kinds = ["latency", "fail_requests", "drop_mid_frame", "corrupt_frames"]
        kind = rng.choice(kinds if persistent else kinds + ["slow_spell"])
        if kind == "slow_spell":
            return cls.slow_spell(rng, timeout)
        if kind == "latency":
            # Far above timeouts when persistent; sub-timeout blip otherwise.
            return cls(latency=10.0 + rng.random() if persistent else 0.001)
        return cls(**{kind: ALWAYS if persistent else 1})


@dataclass
class InjectionLog:
    """Record of everything injected, for test assertions."""

    failed_disks: list[int] = field(default_factory=list)
    latent_errors: list[tuple[int, int]] = field(default_factory=list)  # (disk, strip)
    corruptions: list[tuple[int, int]] = field(default_factory=list)  # (disk, strip)


class FaultInjector:
    """Seeded fault campaigns against a :class:`RAID6Array`."""

    def __init__(self, array: RAID6Array, *, seed: int = 0) -> None:
        self.array = array
        self.rng = np.random.default_rng(seed)
        self.log = InjectionLog()

    def fail_random_disks(self, count: int) -> list[int]:
        """Fail ``count`` distinct healthy disks."""
        healthy = [d.disk_id for d in self.array.disks if not d.failed]
        if count > len(healthy):
            raise ValueError(f"cannot fail {count} of {len(healthy)} healthy disks")
        chosen = [int(x) for x in self.rng.choice(healthy, count, replace=False)]
        for d in chosen:
            self.array.fail_disk(d)
        self.log.failed_disks += chosen
        return chosen

    def inject_latent_errors(self, count: int) -> list[tuple[int, int]]:
        """Mark random strips of healthy disks unreadable."""
        healthy = [d for d in self.array.disks if not d.failed]
        out = []
        for _ in range(count):
            disk = healthy[int(self.rng.integers(0, len(healthy)))]
            strip = int(self.rng.integers(0, disk.n_strips))
            disk.mark_latent_error(strip)
            out.append((disk.disk_id, strip))
        self.log.latent_errors += out
        return out

    def corrupt_random_strips(self, count: int, *, distinct_stripes: bool = True) -> list[tuple[int, int]]:
        """Silently corrupt random strips.

        With ``distinct_stripes`` each corruption lands in a different
        stripe, keeping every stripe within the single-column-correction
        guarantee of the scrubber.
        """
        healthy = [d for d in self.array.disks if not d.failed]
        used: set[int] = {s for (_d, s) in self.log.corruptions}
        out = []
        for i in range(count):
            while True:
                disk = healthy[int(self.rng.integers(0, len(healthy)))]
                strip = int(self.rng.integers(0, disk.n_strips))
                if not distinct_stripes or strip not in used:
                    break
            used.add(strip)
            disk.corrupt(strip, seed=int(self.rng.integers(0, 2**31)))
            out.append((disk.disk_id, strip))
        self.log.corruptions += out
        return out
