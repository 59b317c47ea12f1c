"""Every strip is checked once, where it lands; reads fetch what the
decode reads.

A ``put`` lists each strip's CRC-32 and the node keeps it as the
strip's sidecar; a ``get`` reply lists the stored sidecars and the
client checks each strip against its own.  A strip that fails twice
has rotted at rest and becomes an erasure, so no reader -- degraded
read, delta write, fallback, rebuild, rebalancer or gateway -- returns
or re-encodes it.  A stripe that decodes fetches only the columns its
decode schedule reads: for one lost Liberation or Reed-Solomon data
column, P and not Q.
"""

import asyncio
import zlib

import numpy as np
import pytest

from repro.cluster import ClusterScrubber, LocalCluster, RebuildScheduler, StripNode
from repro.cluster.client import NodeClient, NodeUnavailableError, RetryPolicy
from repro.cluster.protocol import FrameChecksumError, encode_frame, read_frame
from repro.codes import make_code
from repro.gateway import ObjectGateway
from repro.sim import MemoryTransport, VirtualClock
from repro.utils.words import WORD_DTYPE
from tests.cluster.conftest import (
    FAST_POLICY,
    elastic_sim_cluster,
    payload_for,
    sim_cluster,
)


def parse(frame: bytes):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(frame)
        reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(run())


class TestFrames:
    def test_a_strip_frame_crc_covers_only_its_header(self):
        header = {"status": "ok", "crcs": [zlib.crc32(b"s" * 16)]}
        frame = bytearray(encode_frame(header, b"s" * 16))
        frame[-8] ^= 0x01  # in the strip: the receiver's per-strip check sees it
        got, payload = parse(bytes(frame))
        assert got == header
        assert zlib.crc32(payload) != header["crcs"][0]
        frame = bytearray(encode_frame(header, b"s" * 16))
        frame[14] ^= 0x01  # in the header
        with pytest.raises(FrameChecksumError):
            parse(bytes(frame))

    def test_any_other_frame_crc_covers_its_payload(self):
        frame = bytearray(encode_frame({"verb": "xor"}, b"d" * 16))
        frame[-8] ^= 0x01
        with pytest.raises(FrameChecksumError):
            parse(bytes(frame))


class TestNodeChecks:
    def run_node(self, go):
        async def run():
            transport, clock = MemoryTransport(), VirtualClock()
            node = StripNode(0, 4, 10, port=7000, transport=transport, clock=clock)
            client = NodeClient(
                ("127.0.0.1", 7000), policy=RetryPolicy(attempts=2, timeout=0.5),
                transport=transport, clock=clock,
            )
            await node.start()
            try:
                return await go(node, client)
            finally:
                client.close()
                await node.stop()

        return asyncio.run(run())

    def test_a_put_keeps_the_crcs_it_lists_as_sidecars(self):
        strips = [np.full(10, s + 1, dtype=WORD_DTYPE) for s in range(2)]
        crcs = [zlib.crc32(s) for s in strips]

        async def go(node, client):
            await client.request(
                "put", {"stripes": [0, 1], "crcs": crcs}, np.concatenate(strips).data
            )
            reply, payload = await client.request("get", {"stripes": [1, 0]})
            return node.checksums, reply, payload

        sidecars, reply, payload = self.run_node(go)
        assert sidecars == {0: crcs[0], 1: crcs[1]}
        assert reply["crcs"] == [crcs[1], crcs[0]]
        assert payload == strips[1].tobytes() + strips[0].tobytes()

    def test_a_put_with_a_damaged_strip_is_refused_whole(self):
        strips = np.arange(20, dtype=WORD_DTYPE)
        crcs = [zlib.crc32(strips[:10]), zlib.crc32(strips[:10])]  # the second is wrong

        async def go(node, client):
            with pytest.raises(NodeUnavailableError):
                await client.request("put", {"stripes": [0, 1], "crcs": crcs}, strips.data)
            return node, client

        node, client = self.run_node(go)
        assert node.metrics.get("put_crc_mismatches") == 2  # one per attempt
        assert client.metrics.get("remote_errors") == 2  # retried as transient
        assert node.checksums == {}
        assert not node.disk.read_strip(0).any()  # nothing written

    def test_a_put_must_list_its_crcs(self):
        async def go(node, client):
            with pytest.raises(NodeUnavailableError):
                await client.request("put", {"stripe": 0}, bytes(80))
            return node

        node = self.run_node(go)
        assert node.metrics.get("errors") == 2  # bad-request, on each attempt
        assert node.checksums == {}

    def test_a_get_lists_the_sidecar_not_the_rot(self):
        strip = np.arange(10, dtype=WORD_DTYPE)

        async def go(node, client):
            await client.request("put", {"stripe": 2, "crcs": [zlib.crc32(strip)]}, strip.tobytes())
            node.disk.corrupt(2, seed=1)
            return await client.request("get", {"stripe": 2})

        reply, payload = self.run_node(go)
        assert reply["crcs"] == [zlib.crc32(strip)]
        assert zlib.crc32(payload) != reply["crcs"][0]


class TestMisbehavingReplies:
    def test_a_missized_node_costs_its_strips_not_the_read(self):
        """Column 1's node serves strips of half the size: its puts
        fail (the column is listed stale) and its replies answer for
        the wrong number of bytes, which loses their batch like a failed
        RPC.  The array keeps serving."""

        async def run():
            code, cluster = sim_cluster(n_stripes=8)
            words = code.rows * (code.element_size // 8)
            cluster.nodes[1] = StripNode(
                1, 8, words // 2, transport=cluster.transport, clock=cluster.clock
            )
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr)
                await arr.write(0, data)
                assert arr.dirty_stripes == {s: {1} for s in range(8)}
                assert await arr.read(0, arr.capacity) == data
                # The scrub fetches each dirty stripe's columns but the
                # stale one, and cannot put column 1 back.
                report = await ClusterScrubber(arr).scrub()
                assert report.deferred == list(range(8))
                assert arr.metrics.get("bad_replies") == 0
                arr.dirty_stripes.clear()  # column 1 is read on the sunny path too
                assert await arr.read(0, arr.capacity) == data
                assert arr.metrics.get("bad_replies") == 1

        asyncio.run(run())

    def test_a_reply_that_answers_for_none_of_its_strips_loses_them(self):
        """Column 1's node answers every ``get`` ``ok`` while listing
        each strip it was asked for as unreadable, with no payload and
        an empty ``crcs``.  Those strips are lost like latent sectors:
        the read decodes around them."""

        async def run():
            code, cluster = sim_cluster(n_stripes=8)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr)
                await arr.write(0, data)
                node = cluster.nodes[1]

                def confused(header):
                    reply = {"status": "ok", "crcs": [], "unreadable": node._stripes(header)}
                    return reply, []

                node._serve_get = confused
                assert await arr.read(0, arr.capacity) == data
                assert arr.metrics.get("decodes") == 8
                assert arr.metrics.get("bad_replies") == 0
                assert arr.dirty_stripes == {}

        asyncio.run(run())


class TestFetchRule:
    def test_liberation_reads_p_alone_for_one_lost_data_column(self):
        code = make_code("liberation-optimal", 6, p=7)
        assert code.sources((1,)) == (0, 2, 3, 4, 5, 6)
        assert code.sources((1, 6)) == (0, 2, 3, 4, 5, 7)
        assert code.sources((6,)) == tuple(range(6))
        rs = make_code("reed-solomon", 4)
        assert rs.sources((1,)) == (0, 2, 3, 4)

    def test_a_reed_solomon_read_around_a_lost_data_node_sends_k_gets_and_no_q(self):
        """Reed-Solomon decodes one lost data column from P alone, so a
        read of the whole array asks the k - 1 other data nodes and P,
        one ``get`` each, and never Q."""

        async def run():
            code = make_code("reed-solomon", 4, element_size=64)
            cluster = LocalCluster(code, 6, transport=MemoryTransport(), clock=VirtualClock())
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=8)
                await arr.write(0, data)
                await cluster.stop_node(1)
                before = [node.metrics.get("requests_get") for node in cluster.nodes]
                assert await arr.read(0, arr.capacity) == data
                return code, [
                    node.metrics.get("requests_get") - was
                    for node, was in zip(cluster.nodes, before)
                ]

        code, gets = asyncio.run(run())
        assert gets == [1, 0, 1, 1, 1, 0]
        assert sum(gets) == code.k and gets[code.q_col] == 0

    def test_a_second_loss_mid_window_still_rebuilds_byte_identically(self):
        """Window two's fetch finds column 0 gone: it widens, by one
        more get, to Q, and decodes the two erasures."""

        async def run():
            code, cluster = sim_cluster(n_stripes=8)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write(0, payload_for(arr, seed=4))
                lost = cluster.nodes[2].disk
                await cluster.stop_node(2)
                gather, calls = arr._gather, []

                async def second_loss(plan, into, crcs=None):
                    calls.append(sorted(into))
                    if len(calls) == 2:  # the first fetch of window two
                        await cluster.stop_node(0)
                    return await gather(plan, into, crcs)

                arr._gather = second_loss
                spare = await cluster.start_replacement(2)
                assert await RebuildScheduler(arr, batch_stripes=4).rebuild_column(2, spare) == 8
                assert calls == [[0, 1, 2, 3], [4, 5, 6, 7], [4, 5, 6, 7]]
                assert cluster.nodes[code.q_col].metrics.get("requests_get") == 1
                for strip in range(8):
                    assert (cluster.replacements[2].disk.read_strip(strip)
                            == lost.read_strip(strip)).all()

        asyncio.run(run())

    def test_a_strip_rotted_mid_window_still_rebuilds_byte_identically(self):
        async def run():
            code, cluster = sim_cluster(n_stripes=8)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write(0, payload_for(arr, seed=5))
                lost = cluster.nodes[2].disk
                pristine = cluster.nodes[0].disk.read_strip(6).copy()
                await cluster.stop_node(2)
                cluster.nodes[0].disk.corrupt(6, seed=2)
                spare = await cluster.start_replacement(2)
                assert await RebuildScheduler(arr, batch_stripes=4).rebuild_column(2, spare) == 8
                assert arr.metrics.get("rot_erasures") == 1
                for strip in range(8):
                    assert (cluster.replacements[2].disk.read_strip(strip)
                            == lost.read_strip(strip)).all()
                # The decoded strip went back over the rot.
                assert (cluster.nodes[0].disk.read_strip(6) == pristine).all()
                assert arr.dirty_stripes == {}

        asyncio.run(run())


class TestNoReaderPassesRotOn:
    def test_the_rebalancer_moves_decoded_bytes_not_rot(self):
        async def run():
            code, cluster = elastic_sim_cluster(n_stripes=8)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=6)
                await arr.write(0, data)
                source = arr.holders(1)[0]
                cluster.nodes[source].disk.corrupt(1, seed=3)
                arr.membership.drain(source)
                reb = cluster.rebalancer(arr)
                await reb.run_until_converged()
                assert source not in arr.holders(1)
                assert arr.metrics.get("rot_erasures") == 1
                assert await arr.read(0, arr.capacity) == data

        asyncio.run(run())

    def test_a_gateway_get_over_rot_verifies(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                gw = ObjectGateway(arr)
                body = payload_for(arr, seed=7)[: 2 * arr.stripe_data_bytes]
                stripes = (await gw.put("obj", body)).stripes
                gw.cache.clear()
                cluster.nodes[2].disk.corrupt(stripes[1], seed=4)
                assert await gw.get("obj") == body  # its object CRC verifies
                assert arr.dirty_stripes == {stripes[1]: {2}}

        asyncio.run(run())
