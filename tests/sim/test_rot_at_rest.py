"""Rot at rest on the simulation seam: every reader decodes around it.

The node keeps a CRC-32 sidecar per strip and lists it with every strip
a ``get`` returns; the client checks each strip against it.  A strip
that fails twice has rotted at rest: it is an erasure for its stripe,
decoded around, counted and listed in ``dirty_stripes`` for the scrub,
so a read never returns it and a write never re-encodes it into
parity.  A flip on the wire fails once and is fetched again.
"""

import asyncio

import pytest

from repro.array.faults import NetworkFaultPlan
from repro.cluster import ClusterDegradedError, ClusterScrubber
from tests.cluster.conftest import FAST_POLICY, consistent, payload_for, sim_cluster

#: the stripe the drills rot, at liberation-optimal k=3, p=5
STRIPE = 3


def rotted(test):
    """Run ``test(cluster, arr, data)`` on a written cluster whose
    column 1 strip of :data:`STRIPE` has rotted (its sidecar kept)."""

    async def run():
        code, cluster = sim_cluster(n_stripes=6)
        async with cluster:
            arr = cluster.array(policy=FAST_POLICY)
            data = bytearray(payload_for(arr, seed=1))
            await arr.write(0, bytes(data))
            cluster.nodes[1].disk.corrupt(STRIPE, seed=9)
            await test(cluster, arr, data)

    asyncio.run(run())


class TestReads:
    def test_a_read_over_rot_returns_the_written_bytes_with_one_decode(self):
        async def test(cluster, arr, data):
            sdb = arr.stripe_data_bytes
            got = await arr.read(STRIPE * sdb, sdb)
            assert got == bytes(data[STRIPE * sdb : (STRIPE + 1) * sdb])
            assert arr.metrics.get("decodes") == 1
            assert arr.metrics.get("rot_erasures") == 1
            assert arr.metrics.get("strip_refetches") == 1
            assert arr.dirty_stripes == {STRIPE: {1}}
            # The scrub's dirty pass rewrites the strip; then nothing decodes.
            report = await ClusterScrubber(arr).scrub()
            assert report.corrected == [(STRIPE, 1)] and report.healthy
            assert arr.dirty_stripes == {}
            assert await arr.read(0, arr.capacity) == bytes(data)
            assert arr.metrics.get("decodes") == 2  # one more: the scrub's
            assert await consistent(arr)

        rotted(test)

    def test_two_rotted_columns_decode_and_a_third_loss_raises(self):
        async def test(cluster, arr, data):
            sdb = arr.stripe_data_bytes
            cluster.nodes[2].disk.corrupt(STRIPE, seed=10)
            want = bytes(data[STRIPE * sdb : (STRIPE + 1) * sdb])
            assert await arr.read(STRIPE * sdb, sdb) == want
            assert arr.dirty_stripes == {STRIPE: {1, 2}}
            assert arr.metrics.get("rot_erasures") == 2
            cluster.nodes[0].disk.corrupt(STRIPE, seed=11)
            with pytest.raises(ClusterDegradedError):
                await arr.read(STRIPE * sdb, sdb)
            # The other stripes still read.
            assert await arr.read(0, STRIPE * sdb) == bytes(data[: STRIPE * sdb])

        rotted(test)


class TestWrites:
    def test_a_delta_write_beside_rot_leaves_every_untouched_byte_intact(self):
        """Eight bytes into column 0: the delta path fetches, puts and
        XORs around the rotted column 1, and the routine scrub repairs
        it from parity the delta kept consistent."""

        async def test(cluster, arr, data):
            at = STRIPE * arr.stripe_data_bytes + 10
            await arr.write(at, b"d" * 8)
            data[at : at + 8] = b"d" * 8
            assert arr.metrics.get("delta_writes") == 1
            report = await ClusterScrubber(arr).scrub()
            assert report.corrected == [(STRIPE, 1)] and report.healthy
            assert await arr.read(0, arr.capacity) == bytes(data)
            assert await consistent(arr)

        rotted(test)

    def test_a_delta_write_into_the_rotted_strip_decodes_it_first(self):
        """The delta fetch of column 1 finds the rot, so the stripe takes
        the fallback: decode, patch, re-encode, put every column."""

        async def test(cluster, arr, data):
            at = STRIPE * arr.stripe_data_bytes + arr.code.strip_bytes + 10
            await arr.write(at, b"r" * 8)
            data[at : at + 8] = b"r" * 8
            assert arr.metrics.get("delta_writes") == 0
            assert arr.metrics.get("decodes") == 1
            assert arr.dirty_stripes == {}  # rewritten whole
            assert (await ClusterScrubber(arr).scrub()).stripes_clean == arr.n_stripes
            assert await arr.read(0, arr.capacity) == bytes(data)
            assert await consistent(arr)

        rotted(test)

    def test_a_fallback_write_into_a_stale_stripe_over_rot(self):
        """Column 0 of the stripe is stale and column 1 rotted: the
        fallback decodes both and rewrites the stripe."""

        async def test(cluster, arr, data):
            sdb, strip = arr.stripe_data_bytes, arr.code.strip_bytes
            await cluster.stop_node(0)
            stripe = payload_for(arr, seed=4)[:sdb]  # a whole stripe: skips column 0
            await arr.write(STRIPE * sdb, stripe)
            data[STRIPE * sdb : (STRIPE + 1) * sdb] = stripe
            arr.replace_node(0, await cluster.restart_node(0))
            assert arr.dirty_stripes == {STRIPE: {0}}
            cluster.nodes[1].disk.corrupt(STRIPE, seed=12)  # the write renewed it
            at = STRIPE * sdb + 2 * strip + 40
            await arr.write(at, b"f" * 8)
            data[at : at + 8] = b"f" * 8
            assert arr.metrics.get("rot_erasures") == 1
            assert arr.dirty_stripes == {}
            report = await ClusterScrubber(arr).scrub()
            assert report.stripes_clean == arr.n_stripes
            assert await arr.read(0, arr.capacity) == bytes(data)
            assert await consistent(arr)

        rotted(test)


class TestWireFaults:
    @pytest.mark.parametrize("fault", ["corrupt_frames", "drop_mid_frame"])
    @pytest.mark.parametrize("verb", ["get", "put"])
    def test_a_one_off_wire_fault_is_retried_not_listed(self, fault, verb):
        async def run():
            code, cluster = sim_cluster(n_stripes=6)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = bytearray(payload_for(arr, seed=2))
                await arr.write(0, bytes(data))
                cluster.nodes[1].faults = NetworkFaultPlan(**{fault: 1})
                if verb == "get":
                    assert await arr.read(0, arr.capacity) == bytes(data)
                else:
                    fresh = payload_for(arr, seed=3)[: arr.stripe_data_bytes]
                    await arr.write(0, fresh)
                    data[: len(fresh)] = fresh
                assert cluster.nodes[1].faults.to_header()[fault] == 0  # it fired
                assert arr.dirty_stripes == {}
                assert arr.metrics.get("rot_erasures") == 0
                assert arr.metrics.get("decodes") == 0
                assert await arr.read(0, arr.capacity) == bytes(data)
                assert await consistent(arr)

        asyncio.run(run())
