"""How fast the host runs right now, from a fixed slice of work.

On a shared VM the CPU's speed moves by half or more from one second
to the next, and every workload slows with it.  A :class:`HostProbe`
times a fixed amount of interpreter work and memory traffic -- none of
it in ``src/`` -- at both ends of each stretch the benchmark measures,
and :func:`scale` turns the two probe times into the factor by which a
duration measured in between is multiplied to read as if the host ran
at its reference speed: :data:`REFERENCE_S` over the probes' geometric
mean.  A change to the program moves the scaled numbers as it moves the
raw ones; a change in the host's speed moves both the probes and the
program and cancels out.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

#: The probe's time (s) at the reference speed: near its slow state on
#: the host of the figures in ``README.md`` (about 10 ms fast, 17 ms
#: slow).  Fixed, so that scaled numbers stay comparable from commit to
#: commit.
REFERENCE_S = 0.016
#: interpreter loop iterations per probe
LOOP = 80_000
#: passes over the probe's two 1 MiB buffers per probe
PASSES = 24


def scale(before: float, after: float) -> float:
    """The factor for a stretch between probes that took ``before`` and
    ``after`` seconds: the host may change speed at any point in it."""
    return REFERENCE_S / math.sqrt(before * after)


class HostProbe:
    def __init__(self) -> None:
        self._a = np.ones(1 << 20, dtype=np.uint8)
        self._b = np.ones(1 << 20, dtype=np.uint8)

    def _work(self) -> None:
        table: dict[int, int] = {}
        for i in range(LOOP):
            key = i % 97
            table[key] = table.get(key, 0) + i
        for _ in range(PASSES):
            np.bitwise_xor(self._a, self._b, out=self._b)
            np.copyto(self._a, self._b)

    def seconds(self) -> float:
        """One timed probe.  The buffers are touched first, so the time
        does not depend on what the program left in the caches, and the
        collector is off, so it does not depend on the program's heap."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            np.copyto(self._b, self._a)
            t0 = time.perf_counter()
            self._work()
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
