"""What a rebuild window costs beyond its reads, decode and push.

A window decodes where its strips landed: each column it reads is the
rows of its reply frame, and the rebuilt column goes into one buffer the
rebuild allocates once and zeroes window after window, whose rows the
push sends; no source is copied into a window buffer.  The push lists a
rebuilt data strip's or P's CRC-32 folded from the CRCs its sources were
checked with, and the replacement's put check holds the decode to that
fold.  Every drill runs on the simulation seam and checks the rebuilt
disk byte for byte, the stale list and a deep scrub.
"""

import asyncio

import numpy as np
import pytest

import repro.parallel
from repro.array.faults import NetworkFaultPlan
from repro.cluster import (
    ClusterArray,
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

    def test_a_rebuilt_p_is_folded_and_a_rebuilt_q_hashed(self, hashed):
        """P is the XOR of the k data strips the window fetched, so its
        push lists their folded CRCs too (8.008 while it was hashed); Q
        is still hashed as built."""

        async def per_byte(column):
            code, cluster = sim_cluster(k=6, p=7, element_size=4096, n_stripes=64)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write(0, payload_for(arr))
                lost = cluster.nodes[column].disk
                await cluster.stop_node(column)
                spare = await cluster.start_replacement(column)
                hashed[0] = 0
                await RebuildScheduler(arr).rebuild_column(column, spare)
                rebuilt = hashed[0] / (arr.n_stripes * code.strip_bytes)
                await assert_rebuilt(arr, cluster, column, lost)
                return rebuilt

        assert asyncio.run(per_byte(6)) <= 7.01  # P at k=6
        assert 8.0 < asyncio.run(per_byte(7)) <= 8.01  # Q


def counted(monkeypatch, owner, name: str, made: list) -> None:
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        made.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


class TestOneColumnBuffer:
    def test_a_rebuild_lands_no_window_buffer(self, monkeypatch):
        """Each column the decode reads shares memory with a ``get``
        reply frame and is read-only; nothing allocates a window or a
        stripe buffer."""

        async def run():
            code, cluster = sim_cluster(n_stripes=64)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write(0, payload_for(arr, seed=1))
                lost = cluster.nodes[2].disk
                await cluster.stop_node(2)
                spare = await cluster.start_replacement(2)
                fan_out, frames = arr._fan_out, []

                async def recording_frames(verb, plan, *args):
                    done = await fan_out(verb, plan, *args)
                    if verb == "get":
                        frames.extend(np.frombuffer(outcome[1], np.uint8) for *_, outcome in done)
                    return done

                arr._fan_out = recording_frames
                sched = RebuildScheduler(arr)
                decode, sources = sched.coder.decode, []

                def recording_sources(batch, erasures):
                    sources.extend(batch[c] for c in code.sources(erasures))
                    return decode(batch, erasures)

                sched.coder.decode = recording_sources
                made: list[str] = []
                counted(monkeypatch, repro.parallel, "alloc_batch", made)
                counted(monkeypatch, ClusterArray, "_stripe_buffer", made)
                counted(monkeypatch, code, "alloc_stripe", made)
                assert await sched.rebuild_column(2, spare) == 64
                assert made == []
                assert len(sources) == 4 * code.k  # four windows of 16
                for column in sources:
                    assert not column.flags.writeable
                    assert any(np.shares_memory(column, frame) for frame in frames)
                arr._fan_out = fan_out
                await assert_rebuilt(arr, cluster, 2, lost)

        asyncio.run(run())

    def test_windows_decode_into_one_column_buffer(self):
        """The rebuild allocates one buffer for the rebuilt column: both
        full windows decode into it, and the last, short one into a
        prefix of it."""

        async def run():
            code, cluster = sim_cluster(n_stripes=10)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write(0, payload_for(arr, seed=2))
                lost = cluster.nodes[0].disk
                await cluster.stop_node(0)
                spare = await cluster.start_replacement(0)
                sched = RebuildScheduler(arr, batch_stripes=4)
                decode, written = sched.coder.decode, []

                def recording(batch, erasures):
                    written.append(batch[0])  # [rows, stripes, element_size]
                    return decode(batch, erasures)

                sched.coder.decode = recording
                assert await sched.rebuild_column(0, spare) == 10
                await assert_rebuilt(arr, cluster, 0, lost)
                return written

        full, again, short = asyncio.run(run())
        buffer = full.base
        assert again.base is buffer and short.base is buffer
        assert buffer.shape[0] == 4 and full.shape[1] == again.shape[1] == 4
        assert short.shape[1] == 2
        assert np.shares_memory(short, buffer[:2]) and not np.shares_memory(short, buffer[2:])


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


async def refused_flip(column: int) -> None:
    """Flip the first byte of the second stripe's decoded ``column`` in
    a rebuild's second window: its push still lists the fold of its
    sources' CRCs, which the replacement's check refuses, so the
    rebuild fails and the column stays where it was."""
    code, cluster = sim_cluster(n_stripes=8)
    async with cluster:
        arr = cluster.array(policy=FAST_POLICY)
        await arr.write(0, payload_for(arr, seed=7))
        await cluster.stop_node(column)
        before = arr.membership.address_of(column)
        spare = await cluster.start_replacement(column)
        sched = RebuildScheduler(arr, batch_stripes=4)
        decode, windows = sched.coder.decode, []

        def flipping(batch, erasures):
            decode(batch, erasures)
            windows.append(batch)
            if len(windows) == 2:  # the column's row 0, stripe 1, byte 0
                batch[column][0, 1, 0] ^= 0xFF
            return batch

        sched.coder.decode = flipping
        with pytest.raises(NodeUnavailableError):
            await sched.rebuild_column(column, spare)
        replacement = cluster.replacements[column]
        assert replacement.metrics.get("put_crc_mismatches") >= 1
        assert replacement.metrics.get("requests_put") == 1 + FAST_POLICY.attempts
        assert arr.membership.address_of(column) == before
        assert arr.client_for_node(column).address != spare


class TestFoldedPushCrcs:
    def test_the_replacement_refuses_a_decode_that_breaks_the_fold(self):
        asyncio.run(refused_flip(1))

    def test_the_replacement_refuses_a_rebuilt_p_that_breaks_the_fold(self):
        asyncio.run(refused_flip(3))  # P, at k=3
