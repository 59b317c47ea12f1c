"""Connection reuse in ``NodeClient``, on the simulation seam.

A client keeps its connections to a node open between requests.  These
drills count connections -- the client's ``connects`` counter and the
connections a node still holds open -- to pin down when one is reused,
when one is closed, and that a stopped node answers none of them.  The
real-socket side (``StripNode.stop()`` with idle clients) lives in
``test_node.py``.
"""

import asyncio
import zlib

import numpy as np
import pytest

from repro.array.faults import NetworkFaultPlan
from repro.cluster import (
    ClusterError,
    HealthMonitor,
    NodeClient,
    NodeUnavailableError,
    RebuildScheduler,
    RetryPolicy,
    StripNode,
)
from repro.cluster.client import MAX_IDLE_CONNECTIONS
from repro.sim import MemoryTransport, VirtualClock
from repro.utils.words import WORD_DTYPE
from tests.cluster.conftest import (
    FAST_POLICY,
    elastic_sim_cluster,
    payload_for,
    sim_cluster,
)

STRIP_WORDS = 10
#: a single attempt: a faulted request fails instead of retrying past it
ONE_SHOT = RetryPolicy(attempts=1, timeout=0.5)


def strip(seed: int) -> bytes:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**64, STRIP_WORDS, dtype=WORD_DTYPE).tobytes()


def put(client, stripe: int):
    """Store ``strip(stripe)`` as strip ``stripe``."""
    data = strip(stripe)
    return client.request("put", {"stripe": stripe, "crcs": [zlib.crc32(data)]}, data)


def node_and_client(policy=ONE_SHOT, **client_kwargs):
    """One node on a fixed simulated address, and a client to it."""
    transport, clock = MemoryTransport(), VirtualClock()
    node = StripNode(0, 8, STRIP_WORDS, port=7000, transport=transport, clock=clock)
    client = NodeClient(
        ("127.0.0.1", 7000), policy=policy, transport=transport, clock=clock,
        **client_kwargs,
    )
    return node, client


async def open_connections(node: StripNode) -> int:
    """The connections ``node`` holds open once every hang-up (and any
    injected service latency) has played out."""
    await node.clock.sleep(60.0)
    return len(node._connections)


async def rebuild_failing_in_window_three(exc: BaseException) -> None:
    """Rebuild column 1 of 32 stripes in windows of 8 while the third
    window's fetch raises ``exc``; the rebuild raises it, leaves the
    column where it was and leaves the replacement no open connection."""
    code, cluster = sim_cluster(n_stripes=32)
    async with cluster:
        arr = cluster.array(policy=FAST_POLICY)
        await arr.write(0, payload_for(arr))
        await cluster.stop_node(1)
        spare = await cluster.start_replacement(1)
        fetch_for, calls = arr._fetch_for, []

        async def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise exc
            return await fetch_for(*args, **kwargs)

        arr._fetch_for = failing
        with pytest.raises(type(exc)):
            await RebuildScheduler(arr, batch_stripes=8).rebuild_column(1, spare)
        replacement = cluster.replacements[1]
        assert replacement.metrics.get("requests_put") == 2  # windows one and two
        assert arr.client_for_node(1).address != spare
        assert await open_connections(replacement) == 0


class TestReuse:
    def test_sequential_requests_share_one_connection(self):
        async def run():
            node, client = node_and_client()
            await node.start()
            await put(client, 1)
            for _ in range(20):
                _, payload = await client.request("get", {"stripe": 1})
                assert payload == strip(1)
            assert client.metrics.get("connects") == 1
            assert await open_connections(node) == 1
            await node.stop()

        asyncio.run(run())

    def test_a_second_burst_reuses_the_first_bursts_connections(self):
        async def run():
            node, client = node_and_client()
            await node.start()

            async def burst():
                await asyncio.gather(
                    *(client.request("get", {"stripe": s}) for s in range(6))
                )

            await burst()
            assert client.metrics.get("connects") == 6
            await burst()
            assert client.metrics.get("connects") == 6
            await node.stop()

        asyncio.run(run())

    def test_idle_connections_are_capped(self):
        async def run():
            node, client = node_and_client()
            await node.start()
            n = MAX_IDLE_CONNECTIONS + 4
            await asyncio.gather(*(client.request("ping") for _ in range(n)))
            assert client.metrics.get("connects") == n
            assert await open_connections(node) == MAX_IDLE_CONNECTIONS
            await node.stop()

        asyncio.run(run())


class TestFailedAttemptsCloseTheirConnection:
    """Each failure leaves the stream mid-frame or unread, so the
    connection closes; the next request to the healed node dials a
    fresh one and is answered correctly."""

    @pytest.mark.parametrize(
        "plan,counter,verb",
        [
            # A get reply's strips are checked by the array, not by the
            # frame CRC; a scrub-read reply is all header, which it covers.
            (NetworkFaultPlan(corrupt_frames=1), "frame_errors", "scrub-read"),
            (NetworkFaultPlan(drop_mid_frame=1), "connection_errors", "get"),
            (NetworkFaultPlan(latency=5.0, slow_requests=1), "timeouts", "get"),
        ],
        ids=["corrupt-frame", "drop-mid-frame", "timeout"],
    )
    def test_fault(self, plan, counter, verb):
        async def run():
            node, client = node_and_client()
            await node.start()
            await put(client, 2)
            node.faults = plan
            with pytest.raises(NodeUnavailableError):
                await client.request(verb, {"stripe": 2})
            assert client.metrics.get(counter) == 1
            assert await open_connections(node) == 0
            # The fault's budget is spent: the node is healthy again.
            _, payload = await client.request("get", {"stripe": 2})
            assert payload == strip(2)
            assert client.metrics.get("connects") == 2
            await node.stop()

        asyncio.run(run())

    def test_cancelled_hedge_loser(self):
        async def run():
            node, client = node_and_client(
                RetryPolicy(attempts=1, timeout=10.0), hedge_after=0.2
            )
            await node.start()
            await put(client, 3)
            node.faults = NetworkFaultPlan(latency=5.0, slow_requests=1)
            _, payload = await client.request("get", {"stripe": 3})
            assert payload == strip(3)
            assert client.metrics.get("hedge_wins") == 1
            assert client.metrics.get("connects") == 2  # the twin dialled anew
            assert await open_connections(node) == 1  # the loser's is gone
            _, payload = await client.request("get", {"stripe": 3})
            assert payload == strip(3)
            assert client.metrics.get("connects") == 2
            await node.stop()

        asyncio.run(run())


class TestStoppedNodes:
    def test_stopped_node_answers_no_pooled_connection(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr)
                await arr.write(0, data)
                assert await arr.read(0, arr.capacity) == data
                pooled = arr.metrics.get("connects")
                assert await arr.read(0, arr.capacity) == data
                assert arr.metrics.get("connects") == pooled  # all reused

                lost = cluster.nodes[0]
                gets = lost.metrics.get("requests_get")
                await cluster.stop_node(0)
                assert await arr.read(0, arr.capacity) == data
                assert arr.metrics.get("decodes") > 0
                assert lost.metrics.get("requests_get") == gets

        asyncio.run(run())

    def test_restart_on_the_same_address_costs_no_retry(self):
        """The idle connection the restart cut is discarded when taken
        from the pool, not spent as a failed attempt."""

        async def run():
            node, client = node_and_client(FAST_POLICY)
            await node.start()
            await put(client, 4)
            await node.stop()
            assert await node.start() == client.address
            _, payload = await client.request("get", {"stripe": 4})
            assert payload == strip(4)
            assert client.metrics.get("retries") == 0
            assert client.metrics.get("connection_errors") == 0
            assert client.metrics.get("connects") == 2
            await node.stop()

        asyncio.run(run())


class TestClientLifecycle:
    """Clients that are replaced or outlived close their connections."""

    def test_health_probes_keep_one_connection_per_column(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                monitor = HealthMonitor(arr)
                for _ in range(5):
                    assert all((await monitor.probe_once()).values())
                assert arr.metrics.get("connects") == code.n_cols
                # A repointed column gets a new probe; the old one hangs up.
                spare = await cluster.start_replacement(2)
                arr.replace_node(2, spare)
                assert all((await monitor.probe_once()).values())
                assert arr.metrics.get("connects") == code.n_cols + 1
                assert await open_connections(cluster.nodes[2]) == 0
                await monitor.stop()
                assert await open_connections(cluster.replacements[2]) == 0

        asyncio.run(run())

    def test_membership_probes_follow_a_restarted_node(self):
        async def run():
            code, cluster = elastic_sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                monitor = HealthMonitor(arr)
                for _ in range(3):
                    await monitor.probe_once()
                n_nodes = len(cluster.nodes)
                assert arr.metrics.get("connects") == n_nodes
                await cluster.stop_node(0)
                await cluster.restart_node(0)  # same id, new address
                assert all((await monitor.probe_once()).values())
                assert arr.metrics.get("connects") == n_nodes + 1
                await monitor.stop()
                held = [await open_connections(n) for n in cluster.nodes]
                assert held == [0] * n_nodes

        asyncio.run(run())

    def test_replace_node_closes_the_replaced_client(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write(0, payload_for(arr))
                assert await open_connections(cluster.nodes[1]) > 0
                arr.replace_node(1, await cluster.start_replacement(1))
                assert await open_connections(cluster.nodes[1]) == 0

        asyncio.run(run())

    def test_cluster_stop_closes_the_arrays_it_built(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write(0, payload_for(arr))
                assert any(client._idle for client in arr._clients.values())
            assert not any(client._idle for client in arr._clients.values())

        asyncio.run(run())

    def test_elastic_client_for_a_moved_node_closes_the_old_one(self):
        async def run():
            code, cluster = elastic_sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.client_for_node(0).request("ping")
                assert await open_connections(cluster.nodes[0]) == 1
                cluster.membership.nodes[0].address = cluster.nodes[1].address
                await arr.client_for_node(0).request("ping")
                assert await open_connections(cluster.nodes[0]) == 0

        asyncio.run(run())

    def test_rebuild_hands_its_client_to_the_array(self):
        """The array adopts the rebuild's client to the replacement: the
        reads after the rebuild open no new connection to that node."""

        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr)
                await arr.write(0, data)
                await cluster.stop_node(1)
                spare = await cluster.start_replacement(1)
                await RebuildScheduler(arr).rebuild_column(1, spare)
                replacement = cluster.replacements[1]
                assert arr.client_for_node(1).address == spare
                held = await open_connections(replacement)
                assert held > 0  # the rebuild's, still pooled
                connects = arr.metrics.get("connects")
                assert await arr.read(0, arr.capacity) == data
                assert arr.metrics.get("decodes") == 0
                assert arr.metrics.get("connects") == connects
                assert await open_connections(replacement) == held

        asyncio.run(run())

    def test_a_failed_rebuild_closes_its_client(self):
        """A rebuild whose window fails hands its client to no one: the
        replacement keeps no connection open."""
        asyncio.run(rebuild_failing_in_window_three(ClusterError("window three failed")))

    def test_a_cancelled_rebuild_closes_its_client(self):
        asyncio.run(rebuild_failing_in_window_three(asyncio.CancelledError()))
