"""Injectable time: the real event loop clock or a deterministic
virtual one.

Everything in :mod:`repro.cluster` that touches time -- service-latency
faults, request timeouts, retry backoff, latency histograms -- goes
through a :class:`Clock`.  The default :class:`RealClock` delegates to
asyncio, so production behaviour is unchanged.  Under simulation a
:class:`VirtualClock` replaces it: ``sleep`` and ``wait_for`` consume
*virtual* seconds that advance only when nothing else in the loop can
run, so a scenario with seconds of backoff and timeout runs in
microseconds of wall time and -- because nothing ever races the wall
clock -- replays bit-identically from the same seed.

The advancement rule is the standard discrete-event one: while any
virtual sleeper is pending, let the event loop run all ready work, then
jump time straight to the earliest deadline and wake everything due.
The in-memory transport (:mod:`repro.sim.transport`) has no real I/O,
so the loop is idle exactly when its ready queue -- CPython's private
``BaseEventLoop._ready``, present on 3.10-3.12 -- is empty as the pump
task resumes from an ``asyncio.sleep(0)``.  A loop still busy after
:data:`SPIN_LIMIT` such yields is livelocked: every sleeper then fails
with :class:`LivelockError` instead of time moving.
"""

from __future__ import annotations

import asyncio
import contextlib
import heapq
from typing import Awaitable

__all__ = ["Clock", "LivelockError", "RealClock", "VirtualClock"]

_timeout = getattr(asyncio, "timeout", None)

#: Busy yields before a pump gives up on the loop going idle.  The
#: deepest settle in tier-1 and the chaos fuzz campaigns took 247
#: yields; a loop busy for 400 times that is spinning, not settling.
SPIN_LIMIT = 100_000


class LivelockError(RuntimeError):
    """A :class:`VirtualClock`'s loop never went idle, so its time
    could not move; raised in every task sleeping on it."""


class Clock:
    """Interface: time(), sleep(), wait_for() -- see the implementations."""

    def time(self) -> float:
        raise NotImplementedError

    async def sleep(self, delay: float) -> None:
        raise NotImplementedError

    async def wait_for(self, awaitable: Awaitable, timeout: float):
        raise NotImplementedError


class RealClock(Clock):
    """The event loop's own clock (production default)."""

    def time(self) -> float:
        return asyncio.get_running_loop().time()

    async def sleep(self, delay: float) -> None:
        await asyncio.sleep(delay)

    async def wait_for(self, awaitable: Awaitable, timeout: float):
        # ``asyncio.timeout`` (3.11+) runs the awaitable in the calling
        # task; ``wait_for`` before 3.12 wraps it in a Task of its own.
        if _timeout is None:
            return await asyncio.wait_for(awaitable, timeout)
        async with _timeout(timeout):
            return await awaitable


class VirtualClock(Clock):
    """Deterministic discrete-event time for simulation.

    The pump runs while the clock has a pending sleeper and ends with
    its last one.  Two clocks with sleepers pending at once on one loop
    see each other's pump as ready work and raise :class:`LivelockError`;
    clocks used one after another share a loop freely.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._seq = 0
        #: heap of (deadline, seq, future) for pending sleepers
        self._sleepers: list[tuple[float, int, asyncio.Future]] = []
        self._pump: asyncio.Task | None = None

    def time(self) -> float:
        return self._now

    @property
    def pending(self) -> int:
        """Number of unfired sleepers (diagnostics)."""
        return sum(1 for *_ , f in self._sleepers if not f.done())

    async def sleep(self, delay: float) -> None:
        if delay <= 0:
            await asyncio.sleep(0)
            return
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        heapq.heappush(self._sleepers, (self._now + float(delay), self._seq, fut))
        self._seq += 1
        if self._pump is None or self._pump.done():
            self._pump = loop.create_task(self._advance())
        await fut

    async def wait_for(self, awaitable: Awaitable, timeout: float):
        """Race ``awaitable`` against a virtual timer.

        Mirrors :func:`asyncio.wait_for`: on timeout the awaitable is
        cancelled and :class:`asyncio.TimeoutError` is raised, and
        cancelling the wait cancels the awaitable too.  A timer failed
        by a livelock raises its :class:`LivelockError` here.
        """
        if timeout is None:
            return await awaitable
        task = asyncio.ensure_future(awaitable)
        timer = asyncio.ensure_future(self.sleep(timeout))
        try:
            await asyncio.wait({task, timer}, return_when=asyncio.FIRST_COMPLETED)
            if task.done():
                return task.result()
            await timer  # done: a livelock raises here
            raise asyncio.TimeoutError(f"virtual wait_for timed out after {timeout}s")
        finally:
            for waiter in (task, timer):
                if not waiter.done():
                    waiter.cancel()
                    with contextlib.suppress(asyncio.CancelledError):
                        await waiter

    # -- the advancing pump --------------------------------------------------

    def _prune(self) -> None:
        while self._sleepers and self._sleepers[0][2].done():
            heapq.heappop(self._sleepers)

    async def _advance(self) -> None:
        ready = asyncio.get_running_loop()._ready
        spins = 0
        while True:
            # Park behind every runnable callback before touching time.
            await asyncio.sleep(0)
            self._prune()
            if not self._sleepers:
                return
            if ready:
                spins += 1
                if spins < SPIN_LIMIT:
                    continue
                for _, _, fut in self._sleepers:
                    if not fut.done():
                        fut.set_exception(LivelockError(
                            f"virtual time stuck at t={self._now:.6f}: "
                            f"the loop stayed busy for {spins} yields"))
                self._sleepers.clear()
                return
            spins = 0
            self._now = max(self._now, self._sleepers[0][0])
            while self._sleepers and self._sleepers[0][0] <= self._now:
                _, _, fut = heapq.heappop(self._sleepers)
                if not fut.done():
                    fut.set_result(None)

    def __repr__(self) -> str:
        return f"VirtualClock(t={self._now:.6f}, pending={self.pending})"
