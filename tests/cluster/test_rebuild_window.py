"""What a rebuild window costs beyond its reads, decode and push.

A column rebuild allocates one window buffer and refills it window after
window; a column a window does not fetch keeps the previous window's
bytes, which nothing reads.  The push lists each rebuilt data strip's
CRC-32 folded from the CRCs its sources were checked with, and the
replacement's put check holds the decode to that fold.  Every drill runs
on the simulation seam and checks the rebuilt disk byte for byte, the
stale list and a deep scrub.
"""

import asyncio

import numpy as np
import pytest

import repro.cluster.rebuild as rebuild_mod
from repro.array.faults import NetworkFaultPlan
from repro.cluster import (
    ClusterScrubber,
    LocalCluster,
    NodeUnavailableError,
    RebuildScheduler,
)
from repro.codes import CODE_FAMILIES, make_code
from repro.sim import MemoryTransport, VirtualClock
from tests.cluster.conftest import FAST_POLICY, payload_for, sim_cluster


async def assert_rebuilt(arr, cluster, column, lost_disk):
    """The replacement holds the lost disk's bytes, nothing is listed
    stale, and a deep scrub finds every stripe clean."""
    rebuilt = cluster.replacements[column].disk
    for strip in range(arr.n_stripes):
        assert (rebuilt.read_strip(strip) == lost_disk.read_strip(strip)).all(), strip
    assert arr.dirty_stripes == {}
    report = await ClusterScrubber(arr).scrub(deep=True)
    assert report.healthy and report.stripes_corrected == 0
    assert report.stripes_clean == arr.n_stripes


class TestHashing:
    def test_a_rebuild_hashes_about_seven_bytes_per_rebuilt_byte(self, hashed):
        """k=6: six sources checked where they land and the replacement's
        check of what it stores; the push's CRCs are folded from the
        sources' (8.008 while the push hashed every strip)."""
        column, n_stripes = 1, 64

        async def run():
            code, cluster = sim_cluster(k=6, p=7, element_size=4096, n_stripes=n_stripes)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write(0, payload_for(arr))
                lost = cluster.nodes[column].disk
                await cluster.stop_node(column)
                spare = await cluster.start_replacement(column)
                hashed[0] = 0
                await RebuildScheduler(arr).rebuild_column(column, spare)
                per_byte = hashed[0] / (n_stripes * code.strip_bytes)
                await assert_rebuilt(arr, cluster, column, lost)
                return per_byte

        assert asyncio.run(run()) <= 7.01


class TestOneWindow:
    def test_a_rebuild_allocates_one_window(self, monkeypatch):
        allocated = []
        real = rebuild_mod.alloc_batch

        def counting(code, n_stripes):
            allocated.append(n_stripes)
            return real(code, n_stripes)

        monkeypatch.setattr(rebuild_mod, "alloc_batch", counting)

        async def run():
            code, cluster = sim_cluster(n_stripes=64)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write(0, payload_for(arr, seed=1))
                lost = cluster.nodes[2].disk
                await cluster.stop_node(2)
                spare = await cluster.start_replacement(2)
                assert await RebuildScheduler(arr).rebuild_column(2, spare) == 64
                await assert_rebuilt(arr, cluster, 2, lost)

        asyncio.run(run())
        assert allocated == [16]  # one per window, four, before

    def test_full_windows_hand_the_decode_one_buffer(self):
        async def run():
            code, cluster = sim_cluster(n_stripes=10)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write(0, payload_for(arr, seed=2))
                lost = cluster.nodes[0].disk
                await cluster.stop_node(0)
                spare = await cluster.start_replacement(0)
                sched = RebuildScheduler(arr, batch_stripes=4)
                decode, batches = sched.coder.decode, []

                def recording(batch, erasures):
                    batches.append(batch)
                    return decode(batch, erasures)

                sched.coder.decode = recording
                assert await sched.rebuild_column(0, spare) == 10
                await assert_rebuilt(arr, cluster, 0, lost)
                return batches

        full, again, short = asyncio.run(run())
        assert full is again and len(full) == 4
        # The last, short window is a prefix of the same buffer.
        assert len(short) == 2 and np.shares_memory(short, full)


class TestReusedWindow:
    """Bytes left in the window by an earlier window never reach a
    rebuilt strip, a write-back or a decode."""

    def test_a_window_count_that_does_not_divide_the_stripes(self):
        async def run():
            code, cluster = sim_cluster(n_stripes=10)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write(0, payload_for(arr, seed=3))
                lost = cluster.nodes[1].disk
                await cluster.stop_node(1)
                spare = await cluster.start_replacement(1)
                sched = RebuildScheduler(arr, batch_stripes=4)
                assert await sched.rebuild_column(1, spare) == 10
                assert cluster.replacements[1].metrics.get("requests_put") == 3
                await assert_rebuilt(arr, cluster, 1, lost)

        asyncio.run(run())

    def test_a_source_lost_for_one_window_widens_it_between_single_erasures(self):
        """Window one decodes from P alone, so Q stays unfetched; window
        two loses column 0 and widens to Q; window three decodes from P
        again while the window still holds window two's Q."""

        async def run():
            code, cluster = sim_cluster(n_stripes=12)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write(0, payload_for(arr, seed=4))
                lost = cluster.nodes[2].disk
                await cluster.stop_node(2)
                gather, calls = arr._gather, []

                async def second_loss(plan, into, crcs=None):
                    calls.append(sorted(into))
                    if len(calls) == 2:  # the first fetch of window two
                        # Column 0 answers no request of this fetch.
                        cluster.nodes[0].faults = NetworkFaultPlan(
                            fail_requests=FAST_POLICY.attempts
                        )
                    return await gather(plan, into, crcs)

                arr._gather = second_loss
                spare = await cluster.start_replacement(2)
                sched = RebuildScheduler(arr, batch_stripes=4)
                assert await sched.rebuild_column(2, spare) == 12
                assert calls == [
                    [0, 1, 2, 3], [4, 5, 6, 7], [4, 5, 6, 7], [8, 9, 10, 11]
                ]
                assert cluster.nodes[code.q_col].metrics.get("requests_get") == 1
                arr._gather = gather
                await assert_rebuilt(arr, cluster, 2, lost)

        asyncio.run(run())

    @pytest.mark.parametrize("family", CODE_FAMILIES)
    def test_every_column_of_every_family(self, family):
        """Scratch columns (EVENODD's adjuster), decodes that read every
        survivor (Reed-Solomon) and a P that is not the row parity
        (``cauchy-rs-original``, whose push is hashed, not folded)."""

        async def run():
            code = make_code(family, 3, element_size=64)
            for column in range(code.n_cols):
                cluster = LocalCluster(
                    code, 10, transport=MemoryTransport(), clock=VirtualClock()
                )
                async with cluster:
                    arr = cluster.array(policy=FAST_POLICY)
                    await arr.write(0, payload_for(arr, seed=column))
                    lost = cluster.nodes[column].disk
                    await cluster.stop_node(column)
                    spare = await cluster.start_replacement(column)
                    sched = RebuildScheduler(arr, batch_stripes=4)
                    assert await sched.rebuild_column(column, spare) == 10
                    await assert_rebuilt(arr, cluster, column, lost)

        asyncio.run(run())

    def test_a_stale_column_is_restored_and_written_back(self):
        """Stripe 5's column 3 missed a write, so window two decodes it
        beside the lost column and puts it back on its node."""

        async def run():
            code, cluster = sim_cluster(n_stripes=12)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write(0, payload_for(arr, seed=5))
                sdb = arr.stripe_data_bytes
                fresh = payload_for(arr, seed=6)[:sdb]
                cluster.nodes[3].faults = NetworkFaultPlan(
                    fail_requests=FAST_POLICY.attempts
                )
                await arr.write(5 * sdb, fresh)
                assert arr.dirty_stripes == {5: {3}}
                stale = cluster.nodes[3].disk.read_strip(5)
                lost = cluster.nodes[1].disk
                await cluster.stop_node(1)
                spare = await cluster.start_replacement(1)
                sched = RebuildScheduler(arr, batch_stripes=4)
                assert await sched.rebuild_column(1, spare) == 12
                # The write-back put the decoded strip over the stale one.
                assert not (cluster.nodes[3].disk.read_strip(5) == stale).all()
                await assert_rebuilt(arr, cluster, 1, lost)
                assert await arr.read(5 * sdb, sdb) == fresh

        asyncio.run(run())


class TestFoldedPushCrcs:
    def test_the_replacement_refuses_a_decode_that_breaks_the_fold(self):
        """A byte flipped in one window's decoded column still lists the
        fold of its sources' CRCs, which the replacement's check refuses:
        the rebuild fails and the column stays where it was."""

        async def run():
            code, cluster = sim_cluster(n_stripes=8)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write(0, payload_for(arr, seed=7))
                await cluster.stop_node(1)
                before = arr.membership.address_of(1)
                spare = await cluster.start_replacement(1)
                sched = RebuildScheduler(arr, batch_stripes=4)
                decode, windows = sched.coder.decode, []

                def flipping(batch, erasures):
                    decode(batch, erasures)
                    windows.append(batch)
                    if len(windows) == 2:
                        batch[1, 1].reshape(-1).view(np.uint8)[0] ^= 0xFF
                    return batch

                sched.coder.decode = flipping
                with pytest.raises(NodeUnavailableError):
                    await sched.rebuild_column(1, spare)
                replacement = cluster.replacements[1]
                assert replacement.metrics.get("put_crc_mismatches") >= 1
                assert replacement.metrics.get("requests_put") == 1 + FAST_POLICY.attempts
                assert arr.membership.address_of(1) == before
                assert arr.client_for_node(1).address != spare

        asyncio.run(run())
