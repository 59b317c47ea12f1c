"""Stale columns are erasures, and every read-then-write holds its lock.

Two rules of the one array data path:

* A column a degraded write skipped (:attr:`ClusterArray.dirty_stripes`)
  holds old bytes once its node answers again.  Every read counts it as
  lost for the columns it fetches, so a stale data strip is decoded
  around, and a stale P or Q matters only when a read widens to parity.
* Read-modify-write, scrub repair and each rebuild window hold the
  stripes' locks from the read to the write, so a write landing
  meanwhile is neither lost nor overwritten with an older image.

Each drill runs on the simulation seam; the races are forced with an
event gate at the exact interleaving that used to lose data.
"""

import asyncio

import pytest

from repro.cluster import ClusterScrubber, RebuildScheduler
from repro.cluster.placement import place_stripe
from tests.cluster.conftest import (
    FAST_POLICY,
    elastic_sim_cluster,
    payload_for,
    sim_cluster,
)


async def stale_column(cluster, arr, column, *, seed=1):
    """Write everything, then rewrite stripe 0 while ``column``'s node
    is down and bring it back; returns the bytes stripe 0 must read."""
    sdb = arr.stripe_data_bytes
    await arr.write(0, payload_for(arr, seed=seed))
    fresh = payload_for(arr, seed=seed + 1)[:sdb]
    await cluster.stop_node(column)
    await arr.write(0, fresh)
    assert arr.dirty_stripes == {0: {column}}
    arr.replace_node(column, await cluster.restart_node(column))
    return fresh


class TestStaleColumns:
    def test_read_decodes_around_a_stale_data_column(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                fresh = await stale_column(cluster, arr, 1)
                assert await arr.read(0, arr.stripe_data_bytes) == fresh
                assert arr.metrics.get("decodes") == 1

        asyncio.run(run())

    def test_small_write_keeps_the_fresh_bytes_of_a_stale_column(self):
        """An RMW into column 0 must not re-encode column 1's old strip
        into parity and clear its dirty mark."""

        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                fresh = await stale_column(cluster, arr, 1)
                await arr.write(0, b"\xab" * 8)
                want = b"\xab" * 8 + fresh[8:]
                assert arr.dirty_stripes == {}
                assert await arr.read(0, arr.stripe_data_bytes) == want
                report = await ClusterScrubber(arr).scrub(deep=True)
                assert report.healthy
                assert await arr.read(0, arr.stripe_data_bytes) == want

        asyncio.run(run())

    def test_stale_parity_matters_only_when_the_read_widens(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                fresh = await stale_column(cluster, arr, code.p_col)
                # Every data column answers: P is never fetched.
                assert await arr.read(0, arr.stripe_data_bytes) == fresh
                assert arr.metrics.get("decodes") == 0
                # A lost data column widens the read: the stale P joins
                # the erasures and Q decodes both.
                await cluster.stop_node(0)
                assert await arr.read(0, arr.stripe_data_bytes) == fresh
                assert arr.metrics.get("decodes") == 1

        asyncio.run(run())


    # Parametrized so the test id stays `...[write]`.
    @pytest.mark.parametrize("via", ["write"])
    def test_a_full_write_supersedes_older_stale_columns(self, via):
        """Three outages in turn, a full-stripe write during each: only
        the last write's skipped column is stale, so every node up reads
        and rebuilds the stripe."""

        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                sdb = arr.stripe_data_bytes
                await arr.write(0, payload_for(arr, seed=1))
                for column in range(3):
                    fresh = payload_for(arr, seed=10 + column)[:sdb]
                    await cluster.stop_node(column)
                    await arr.write(0, fresh)
                    assert arr.dirty_stripes == {0: {column}}
                    arr.replace_node(column, await cluster.restart_node(column))
                assert await arr.read(0, sdb) == fresh
                await cluster.stop_node(0)
                spare = await cluster.start_replacement(0)
                await RebuildScheduler(arr).rebuild_column(0, spare)
                cluster.promote_replacement(0)
                assert arr.dirty_stripes == {}
                assert (await ClusterScrubber(arr).scrub(deep=True)).healthy
                assert await arr.read(0, sdb) == fresh

        asyncio.run(run())

    def test_a_migration_keeps_a_stale_column_that_stays_put(self):
        async def run():
            code, cluster = elastic_sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                sdb = arr.stripe_data_bytes
                await arr.write(0, payload_for(arr, seed=1))
                held = arr.holders(0)
                # Drain a holder of another column whose departure
                # leaves column 1 where it is.
                pool = set(arr.membership.placement_pool())
                victim = next(
                    n for n in held
                    if n != held[1]
                    and place_stripe(0, pool - {n}, code.n_cols)[1] == held[1]
                )
                fresh = payload_for(arr, seed=2)[:sdb]
                await cluster.stop_node(held[1])
                await arr.write(0, fresh)
                assert arr.dirty_stripes == {0: {1}}
                await cluster.restart_node(held[1])
                assert await cluster.rebalancer(arr).drain(victim) > 0
                assert arr.holders(0)[1] == held[1]
                assert victim not in arr.holders(0)
                assert arr.dirty_stripes == {0: {1}}
                assert await arr.read(0, sdb) == fresh

        asyncio.run(run())


def gate_after(obj, name, *, times=1):
    """Patch ``obj.name`` (a coroutine method) to park after its first
    ``times`` calls return, until the returned event is set."""
    gate = asyncio.Event()
    original = getattr(obj, name)
    calls = []

    async def parked(*args, **kwargs):
        result = await original(*args, **kwargs)
        calls.append(name)
        if len(calls) <= times:
            await gate.wait()
        return result

    setattr(obj, name, parked)
    return gate


class TestStripeLocks:
    @pytest.mark.parametrize("make", [sim_cluster, elastic_sim_cluster],
                             ids=["column-order", "rendezvous"])
    def test_concurrent_small_writes_to_one_stripe_both_land(self, make):
        async def run():
            code, cluster = make()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = bytearray(payload_for(arr, seed=2))
                await arr.write(0, bytes(data))
                data[0:8] = b"\x11" * 8
                data[8:16] = b"\x22" * 8
                await asyncio.gather(
                    arr.write(0, b"\x11" * 8), arr.write(8, b"\x22" * 8)
                )
                assert await arr.read(0, arr.capacity) == bytes(data)

        asyncio.run(run())

    def test_scrub_repair_cannot_overwrite_a_concurrent_write(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                sdb = arr.stripe_data_bytes
                await arr.write(0, payload_for(arr, seed=3))
                fresh = payload_for(arr, seed=4)[:sdb]
                cluster.nodes[1].disk.mark_latent_error(0)
                scrubber = ClusterScrubber(arr)
                gate = gate_after(arr, "_gather")
                scrub = asyncio.ensure_future(scrubber.scrub_stripe(0))
                await cluster.clock.sleep(1.0)  # fetched, about to repair
                write = asyncio.ensure_future(arr.write(0, fresh))
                await cluster.clock.sleep(1.0)
                gate.set()
                await scrub
                await write
                assert arr.dirty_stripes == {}
                assert await arr.read(0, sdb) == fresh
                assert (await scrubber.scrub(deep=True)).healthy
                assert await arr.read(0, sdb) == fresh

        asyncio.run(run())

    def test_write_during_a_rebuild_window_is_not_lost(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                sdb = arr.stripe_data_bytes
                await arr.write(0, payload_for(arr, seed=5))
                fresh = payload_for(arr, seed=6)[:sdb]
                await cluster.stop_node(1)
                spare = await cluster.start_replacement(1)
                gate = gate_after(arr, "_gather")  # the first window's fetch
                rebuild = asyncio.ensure_future(
                    RebuildScheduler(arr, batch_stripes=2).rebuild_column(1, spare)
                )
                await cluster.clock.sleep(1.0)
                write = asyncio.ensure_future(arr.write(0, fresh))
                await cluster.clock.sleep(1.0)
                gate.set()
                await rebuild
                await write
                cluster.promote_replacement(1)
                assert await arr.read(0, sdb) == fresh
                assert (await ClusterScrubber(arr).scrub()).healthy
                assert arr.dirty_stripes == {}
                assert await arr.read(0, sdb) == fresh

        asyncio.run(run())

    def test_a_lock_entry_lives_only_while_held_or_awaited(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                release = asyncio.Event()

                async def hold():
                    async with arr.stripe_lock(0):
                        await release.wait()

                holder = asyncio.ensure_future(hold())
                await asyncio.sleep(0)
                waiter = asyncio.ensure_future(arr.write(0, b"\x01" * 8))
                await asyncio.sleep(0)
                assert list(arr._locks) == [0]
                release.set()
                await holder
                await waiter
                await arr.write(0, payload_for(arr, seed=7))
                assert arr._locks == {}

        asyncio.run(run())
