"""End-to-end tests of the distributed array: striping, degraded
reads with any two nodes stopped, metrics, and background rebuild.

Everything runs on the simulation seam (in-memory transport + virtual
clock): same code paths as production, none of the socket timing
noise.  Real-socket coverage lives in ``test_node.py`` (marked slow).
"""

import asyncio
import itertools

import pytest

from repro.cluster import ClusterArray, ClusterDegradedError, RebuildScheduler
from tests.cluster.conftest import (
    FAST_POLICY,
    elastic_sim_cluster,
    payload_for,
    sim_cluster,
)


class TestHealthyPath:
    def test_write_read_round_trip(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=1)
                await arr.write(0, data)
                return data, await arr.read(0, arr.capacity)

        data, back = asyncio.run(run())
        assert back == data

    def test_unaligned_rmw_write(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = bytearray(payload_for(arr, seed=2))
                await arr.write(0, bytes(data))
                patch = b"X" * 333
                off = arr.stripe_data_bytes // 2  # straddles a stripe boundary
                await arr.write(off, patch)
                data[off : off + len(patch)] = patch
                back = await arr.read(0, arr.capacity)
                return bytes(data), back, arr.metrics.get("rmw_writes")

        data, back, rmw = asyncio.run(run())
        assert back == data
        assert rmw > 0

    def test_partial_reads_slice_correctly(self):
        async def run():
            code, cluster = sim_cluster(n_stripes=4)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=3)
                await arr.write(0, data)
                sdb = arr.stripe_data_bytes
                reads = [(0, 10), (sdb - 5, 10), (sdb * 2 + 7, sdb), (arr.capacity - 1, 1)]
                got = [await arr.read(off, ln) for off, ln in reads]
                return data, reads, got

        data, reads, got = asyncio.run(run())
        for (off, ln), blob in zip(reads, got):
            assert blob == data[off : off + ln]

    def test_out_of_range_io_rejected(self):
        async def run():
            code, cluster = sim_cluster(n_stripes=2)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                with pytest.raises(ValueError):
                    await arr.read(0, arr.capacity + 1)
                with pytest.raises(ValueError):
                    await arr.write(arr.capacity - 1, b"xy")

        asyncio.run(run())

    def test_address_count_validated(self):
        code, cluster = sim_cluster()
        with pytest.raises(ValueError):
            ClusterArray(code, [("127.0.0.1", 1)] * (code.n_cols - 1), 4)


class TestDegradedReads:
    def test_any_two_nodes_down_reads_are_byte_identical(self):
        """The acceptance drill: every 2-of-(k+2) loss pattern."""

        async def run():
            code, _ = sim_cluster(n_stripes=4)
            victims = list(itertools.combinations(range(code.n_cols), 2))
            results = []
            for pair in victims:
                async with sim_cluster(n_stripes=4)[1] as cl:
                    arr = cl.array(policy=FAST_POLICY)
                    data = payload_for(arr, seed=7)
                    await arr.write(0, data)
                    for col in pair:
                        await cl.stop_node(col)
                    back = await arr.read(0, arr.capacity)
                    stats = await arr.stats()
                    results.append((pair, back == data,
                                    stats["client"]["counters"].get("decodes", 0),
                                    stats["client"]["counters"].get("retries", 0)))
            return code.k, results

        k, results = asyncio.run(run())
        for pair, intact, decodes, retries in results:
            assert intact, f"corrupt read with nodes {pair} down"
            if any(col < k for col in pair):
                # A lost data column forces the decode + retry machinery;
                # parity-only loss is invisible to reads (tested below).
                assert decodes > 0, f"no decode recorded for {pair}"
                assert retries > 0, f"no retry recorded for {pair}"

    def test_parity_only_loss_is_invisible_to_reads(self):
        async def run():
            code, cluster = sim_cluster(n_stripes=3)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=8)
                await arr.write(0, data)
                await cluster.stop_node(code.p_col)
                await cluster.stop_node(code.q_col)
                back = await arr.read(0, arr.capacity)
                return data, back, arr.metrics.get("decodes")

        data, back, decodes = asyncio.run(run())
        assert back == data
        assert decodes == 0  # sunny path never touches parity

    def test_three_lost_columns_raise(self):
        async def run():
            code, cluster = sim_cluster(n_stripes=2)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write(0, payload_for(arr, seed=9))
                for col in (0, 1, code.q_col):
                    await cluster.stop_node(col)
                with pytest.raises(ClusterDegradedError):
                    await arr.read(0, arr.capacity)

        asyncio.run(run())

    def test_degraded_writes_stay_recoverable(self):
        """Writes while a node is down skip it; the data still reads
        back (through parity) and survives a *different* loss later."""

        async def run():
            code, cluster = sim_cluster(n_stripes=3)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=10)
                await cluster.stop_node(1)
                await arr.write(0, data)
                assert arr.metrics.get("degraded_writes") > 0
                back_degraded = await arr.read(0, arr.capacity)
                return data, back_degraded

        data, back = asyncio.run(run())
        assert back == data


class TestRebuild:
    def test_rebuild_restores_full_redundancy(self):
        """Lose two nodes, rebuild both, then survive losing two more."""

        async def run():
            code, cluster = sim_cluster(n_stripes=5)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=11)
                await arr.write(0, data)
                dead = [1, code.p_col]
                for col in dead:
                    await cluster.stop_node(col)

                for col in dead:
                    addr = await cluster.start_replacement(col)
                    sched = RebuildScheduler(arr, batch_stripes=2)
                    sched.start(col, addr)
                    rebuilt = await sched.wait()
                    assert rebuilt == arr.n_stripes
                    # This rebuild's progress, not every rebuild's.
                    assert sched.progress == (arr.n_stripes, arr.n_stripes)
                    cluster.promote_replacement(col)

                assert all((await arr.ping()).values())
                # Full redundancy again: a fresh double loss elsewhere
                # must still decode.
                for col in (0, code.q_col):
                    await cluster.stop_node(col)
                back = await arr.read(0, arr.capacity)
                stats = await arr.stats()
                return data, back, stats

        data, back, stats = asyncio.run(run())
        assert back == data
        assert stats["client"]["counters"]["rebuild_stripes_done"] == 10

    def test_rebuild_rejects_a_column_spread_over_several_nodes(self):
        """Under rendezvous placement no node holds a whole column: the
        rebuild refuses before it asks for a spare or sends an RPC."""

        async def run():
            _, cluster = elastic_sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write(0, payload_for(arr))
                assert arr.column_node(1) is None
                asked = []

                async def provider(column):
                    asked.append(column)
                    return await cluster.start_replacement(column)

                requests = arr.metrics.get("requests")
                with pytest.raises(ValueError, match="spread"):
                    await RebuildScheduler(arr).rebuild_column(
                        1, target_provider=provider
                    )
                assert asked == []
                assert arr.metrics.get("requests") == requests

        asyncio.run(run())

    def test_array_serves_while_rebuild_runs(self):
        async def run():
            code, cluster = sim_cluster(n_stripes=6)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=12)
                await arr.write(0, data)
                await cluster.stop_node(0)
                addr = await cluster.start_replacement(0)
                sched = RebuildScheduler(arr, batch_stripes=2)
                task = sched.start(0, addr)
                # Interleave live degraded reads with the background task.
                back = await arr.read(0, arr.capacity)
                await sched.wait()
                cluster.promote_replacement(0)
                assert task.done()
                return data, back

        data, back = asyncio.run(run())
        assert back == data

    def test_out_of_range_column_rejected_before_the_provider_runs(self):
        """A bad column must not start a spare: -1 would pick the Q
        column's node, and ``n_cols`` would surface an IndexError."""

        async def run():
            code, cluster = sim_cluster(n_stripes=2)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                asked = []

                async def provider(column):
                    asked.append(column)
                    return await cluster.start_replacement(column)

                sched = RebuildScheduler(arr)
                for column in (-1, code.n_cols):
                    with pytest.raises(ValueError, match="out of range"):
                        await sched.rebuild_column(column, target_provider=provider)
                return asked, dict(cluster.replacements)

        asked, replacements = asyncio.run(run())
        assert asked == []
        assert replacements == {}

    def test_rebuild_survives_concurrent_second_loss(self):
        async def run():
            code, cluster = sim_cluster(n_stripes=4)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=13)
                await arr.write(0, data)
                await cluster.stop_node(1)
                await cluster.stop_node(code.q_col)  # second loss before rebuild
                addr = await cluster.start_replacement(1)
                sched = RebuildScheduler(arr, batch_stripes=2)
                await sched.rebuild_column(1, addr)
                cluster.promote_replacement(1)
                back = await arr.read(0, arr.capacity)
                return data, back

        data, back = asyncio.run(run())
        assert back == data


class TestStatsView:
    def test_stats_aggregates_client_and_nodes(self):
        async def run():
            code, cluster = sim_cluster(n_stripes=2)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write(0, payload_for(arr, seed=14))
                await arr.read(0, arr.capacity)
                await cluster.stop_node(0)
                return code, await arr.stats()

        code, stats = asyncio.run(run())
        assert stats["client"]["counters"]["full_stripe_writes"] == 2
        assert stats["nodes"][0] is None  # stopped node reports as unreachable
        live = [n for n in stats["nodes"].values() if n is not None]
        assert len(live) == code.n_cols - 1
        # one batched put per node carried both stripes' strips
        assert all(n["stats"]["counters"]["requests_put"] == 1 for n in live)
        assert all(n["disk"]["writes"] >= 2 for n in live)
        # request latency histogram populated on the client
        assert stats["client"]["histograms"]["request_latency_s"]["count"] > 0
