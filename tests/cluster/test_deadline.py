"""Total request deadlines: the budget that caps retries + backoff.

A per-RPC ``timeout`` bounds each attempt; ``deadline`` bounds the
whole request.  These tests pin the distinction on the virtual clock:
with no deadline a slow node costs ``attempts * timeout`` (plus
backoff); with one, the request fails at the budget with the typed
:class:`DeadlineExceededError` -- which the array's degraded-read
machinery treats as just another unavailable column.
"""

import asyncio

import pytest

from repro.array.faults import ALWAYS, NetworkFaultPlan
from repro.cluster.client import (
    DeadlineExceededError,
    NodeUnavailableError,
    RetryPolicy,
)

from .conftest import sim_cluster


def run(coro):
    return asyncio.run(coro)


def slow_plan(latency=10.0):
    """Every data request to the node stalls far beyond any timeout."""
    return NetworkFaultPlan(latency=latency, slow_requests=0)


class TestDeadlineVsPerRpcTimeout:
    def test_without_deadline_cost_is_attempts_times_timeout(self):
        async def main():
            _code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=RetryPolicy(
                    attempts=3, timeout=0.2, backoff=0.01, max_backoff=0.01
                ))
                cluster.nodes[0].faults = slow_plan()
                t0 = cluster.clock.time()
                with pytest.raises(NodeUnavailableError) as exc_info:
                    await arr.client_for_node(0).request("get", {"stripe": 0})
                elapsed = cluster.clock.time() - t0
                # Not the deadline path: the historical behaviour.
                assert not isinstance(exc_info.value, DeadlineExceededError)
                # All three attempts timed out (+ two 0.01s backoffs).
                assert elapsed == pytest.approx(3 * 0.2 + 2 * 0.01)

        run(main())

    def test_deadline_caps_the_total_budget(self):
        async def main():
            _code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=RetryPolicy(
                    attempts=3, timeout=0.2, backoff=0.01, max_backoff=0.01,
                    deadline=0.3,
                ))
                cluster.nodes[0].faults = slow_plan()
                t0 = cluster.clock.time()
                with pytest.raises(DeadlineExceededError):
                    await arr.client_for_node(0).request("get", {"stripe": 0})
                elapsed = cluster.clock.time() - t0
                # Attempt 1 burns the full 0.2s timeout, the backoff
                # fits, attempt 2 is clipped to the ~0.09s remainder:
                # total stays at the budget, far below 3 * timeout.
                assert elapsed == pytest.approx(0.3, abs=1e-6)
                assert arr.metrics.counter("deadline_exceeded").value == 1

        run(main())

    def test_backoff_longer_than_budget_fails_without_sleeping_it(self):
        async def main():
            _code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=RetryPolicy(
                    attempts=3, timeout=1.0, backoff=5.0, max_backoff=5.0,
                    deadline=1.5,
                ))
                # Frame corruption fails each attempt fast (a retryable
                # transport error, no latency involved).  A ping's reply
                # is all header, which the frame CRC covers.
                cluster.nodes[0].faults = NetworkFaultPlan(corrupt_frames=ALWAYS)
                t0 = cluster.clock.time()
                with pytest.raises(DeadlineExceededError):
                    await arr.client_for_node(0).request("ping")
                # The 5s backoff exceeded the remaining budget: the
                # client must give up *before* sleeping it.
                assert cluster.clock.time() - t0 < 1.5

        run(main())

    def test_deadline_is_a_node_unavailable_error(self):
        # Degraded reads, circuit breakers and health accounting all
        # classify by NodeUnavailableError; the deadline must fold in.
        assert issubclass(DeadlineExceededError, NodeUnavailableError)

    def test_generous_deadline_changes_nothing(self):
        async def main():
            _code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=RetryPolicy(
                    attempts=2, timeout=0.5, backoff=0.01, deadline=60.0
                ))
                data = bytes(i % 256 for i in range(arr.capacity))
                await arr.write(0, data)
                assert await arr.read(0, arr.capacity) == data

        run(main())


class TestDeadlineUnderDegradedReads:
    def test_degraded_read_decodes_around_a_deadline_lost_column(self):
        async def main():
            _code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=RetryPolicy(
                    attempts=3, timeout=0.2, backoff=0.01, deadline=0.3
                ))
                data = bytes(i % 251 for i in range(arr.capacity))
                await arr.write(0, data)
                cluster.nodes[1].faults = slow_plan()
                t0 = cluster.clock.time()
                assert await arr.read(0, arr.capacity) == data
                # Each stripe read gives up on the slow column at the
                # deadline and decodes; without the deadline the same
                # read would stall attempts * timeout per stripe.
                per_stripe = (cluster.clock.time() - t0) / arr.n_stripes
                assert per_stripe < 3 * 0.2

        run(main())
