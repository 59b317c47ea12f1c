"""VirtualClock semantics: virtual seconds cost no wall time, fire in
deadline order, move only when nothing else can run, and wait_for
mirrors asyncio.wait_for."""

import asyncio
import time

import pytest

from repro.sim import LivelockError, RealClock, VirtualClock


def test_virtual_sleep_costs_no_wall_time():
    async def run():
        clock = VirtualClock()
        await clock.sleep(3600.0)
        return clock.time()

    wall0 = time.monotonic()
    virtual = asyncio.run(run())
    assert virtual == 3600.0
    assert time.monotonic() - wall0 < 2.0  # an hour of virtual time, instantly


def test_sleepers_fire_in_deadline_order():
    async def run():
        clock = VirtualClock()
        order = []

        async def napper(name, delay):
            await clock.sleep(delay)
            order.append((name, clock.time()))

        await asyncio.gather(
            napper("c", 3.0), napper("a", 1.0), napper("b", 2.0)
        )
        return order

    order = asyncio.run(run())
    assert order == [("a", 1.0), ("b", 2.0), ("c", 3.0)]


def test_time_starts_at_start_and_is_monotonic():
    async def run():
        clock = VirtualClock(start=100.0)
        assert clock.time() == 100.0
        await clock.sleep(0.5)
        assert clock.time() == 100.5
        await clock.sleep(0)  # zero-sleep must not advance time
        assert clock.time() == 100.5

    asyncio.run(run())


def test_wait_for_timeout_cancels_and_raises():
    async def run():
        clock = VirtualClock()
        cancelled = asyncio.Event()

        async def forever():
            try:
                await clock.sleep(10_000.0)
            except asyncio.CancelledError:
                cancelled.set()
                raise

        with pytest.raises(asyncio.TimeoutError):
            await clock.wait_for(forever(), timeout=0.25)
        assert cancelled.is_set()
        return clock.time()

    assert asyncio.run(run()) == pytest.approx(0.25)


def test_cancelling_wait_for_cancels_the_awaitable():
    async def run():
        clock = VirtualClock()
        cancelled_at = []

        async def slow():
            try:
                await clock.sleep(10.0)
            except asyncio.CancelledError:
                cancelled_at.append(clock.time())
                raise

        waiter = asyncio.ensure_future(clock.wait_for(slow(), timeout=50.0))
        await clock.sleep(1.0)
        waiter.cancel()
        with pytest.raises(asyncio.CancelledError):
            await waiter
        return cancelled_at

    assert asyncio.run(run()) == [1.0]


def test_wait_for_returns_result_before_timeout():
    async def run():
        clock = VirtualClock()

        async def quick():
            await clock.sleep(0.1)
            return "done"

        result = await clock.wait_for(quick(), timeout=50.0)
        return result, clock.time()

    result, t = asyncio.run(run())
    assert result == "done"
    assert t == pytest.approx(0.1)  # the loser timer never fires


def test_interleaved_sleep_chains_are_deterministic():
    """Two runs of the same concurrent sleep pattern trace identically."""

    def campaign():
        async def run():
            clock = VirtualClock()
            trace = []

            async def worker(name, period, n):
                for i in range(n):
                    await clock.sleep(period)
                    trace.append((name, i, clock.time()))

            await asyncio.gather(worker("x", 0.3, 4), worker("y", 0.5, 3))
            return trace

        return asyncio.run(run())

    assert campaign() == campaign()


def test_zero_time_yields_never_move_virtual_time():
    async def run():
        clock = VirtualClock()

        async def yields():
            for _ in range(100):
                await asyncio.sleep(0)
            return "done"

        result = await clock.wait_for(yields(), timeout=1.0)
        return result, clock.time()

    assert asyncio.run(run()) == ("done", 0.0)


def test_a_deep_chain_of_tasks_never_moves_virtual_time():
    async def run():
        clock = VirtualClock()

        async def nested(depth):
            if depth == 0:
                return "done"
            return await asyncio.ensure_future(nested(depth - 1))

        result = await clock.wait_for(nested(30), timeout=1.0)
        return result, clock.time()

    assert asyncio.run(run()) == ("done", 0.0)


def test_a_livelock_raises_in_every_sleeping_task():
    async def run():
        clock = VirtualClock()

        async def spin():
            while True:
                await asyncio.sleep(0)

        napper = asyncio.ensure_future(clock.sleep(5.0))
        with pytest.raises(LivelockError):
            # A real-time bound, so a waiter left hanging fails the test.
            await asyncio.wait_for(clock.wait_for(spin(), timeout=1.0), timeout=60.0)
        with pytest.raises(LivelockError):
            await napper
        return clock.time()

    assert asyncio.run(run()) == 0.0


def test_a_clock_with_no_sleeper_left_stops_its_pump():
    """A pump ends with its clock's last sleeper, so clocks used one
    after another on one loop never spin against each other."""

    async def run():
        for _ in range(10):
            clock = VirtualClock()
            # The sleep wins, so wait_for cancels its timer ...
            await clock.wait_for(clock.sleep(0.5), timeout=1.0)
            # ... and this sleeper is the clock's last.
            await clock.sleep(0.5)
            for _ in range(10):  # turns for the pump to find its heap empty
                await asyncio.sleep(0)
            assert asyncio.all_tasks() == {asyncio.current_task()}
            assert clock.time() == 1.0

    asyncio.run(run())


def test_real_clock_smoke():
    async def run():
        clock = RealClock()
        t0 = clock.time()
        await clock.sleep(0)
        assert clock.time() >= t0
        assert await clock.wait_for(asyncio.sleep(0, result=7), timeout=5.0) == 7

    asyncio.run(run())
