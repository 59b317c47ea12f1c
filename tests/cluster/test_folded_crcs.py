"""CRCs folded instead of rehashed, and the checks they keep.

A write hashes the user's bytes once, in strip-aligned pieces: a piece
that fills a strip is the CRC its ``put`` lists, and an encoded
stripe's P lists the fold of its data strips' CRCs.  A read folds each
span's CRC from the CRCs its strips were checked with where they
landed, hashing a decoded strip once.  The node still checks every put
strip against its listed CRC, so a piece the layout misplaces inside a
strip is refused there.
"""

import asyncio
import sys
import zlib

import pytest

from repro.analysis.concurrency import sanitizer
from repro.cluster import LocalCluster
from repro.cluster.protocol import encode_frame, read_frame
from repro.codes import make_code
from repro.sim import MemoryTransport, VirtualClock
from tests.cluster.conftest import FAST_POLICY, payload_for, sim_cluster


class TestWriteSpans:
    def test_each_span_returns_the_crc_of_its_bytes(self):
        async def run():
            code, cluster = sim_cluster(n_stripes=4)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=1)
                sdb, strip = arr.stripe_data_bytes, code.strip_bytes
                spans = [
                    (0, data[: sdb + 100]),  # a whole stripe and a piece
                    (2 * sdb + 7, data[7 : strip + 30]),  # across a strip boundary
                    (3 * sdb, b""),
                ]
                crcs, old = await arr.write_spans(spans)
                assert old is None
                assert crcs == [zlib.crc32(chunk) for _, chunk in spans]
                crcs, old = await arr.write_spans(spans[:1], read_old=True)
                assert crcs == [zlib.crc32(spans[0][1])] and old == [spans[0][1]]

        asyncio.run(run())

    @pytest.mark.parametrize("name", ["liberation-optimal", "cauchy-rs-original"])
    @pytest.mark.parametrize("k", [3, 4])
    def test_every_sidecar_is_the_crc_of_its_strip(self, name, k):
        """Whole stripes, a packed piece and a later span over part of
        an earlier one: what each node keeps matches what it stores,
        P's folded CRC included (odd and even k; and a family whose P
        is not the row parity hashes P as built)."""

        async def run():
            code = make_code(name, k, element_size=64)
            cluster = LocalCluster(
                code, 4, transport=MemoryTransport(), clock=VirtualClock()
            )
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=2)
                sdb = arr.stripe_data_bytes
                await arr.write_spans([
                    (0, data[: 2 * sdb]),
                    (sdb + 10, data[:40]),  # rewrites part of a filled strip
                    (3 * sdb + 5, data[:50]),
                ])
                for node in cluster.nodes:
                    for stripe, crc in node.checksums.items():
                        assert crc == zlib.crc32(node.disk.read_strip(stripe).data)
                want = bytearray(data[: 2 * sdb])
                want[sdb + 10 : sdb + 50] = data[:40]
                assert await arr.read(0, 2 * sdb) == bytes(want)
                assert not arr.dirty_stripes

        asyncio.run(run())

    def test_a_piece_the_layout_misplaces_is_refused_by_its_node(self):
        """The put lists the CRC of the user's bytes for the strip the
        piece fills, so a layout that lands it 8 bytes off builds a
        strip its node refuses (``bad-crc``); the write degrades around
        the column, and no node stores the misplaced strip."""

        async def run():
            code, cluster = sim_cluster(n_stripes=2)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=3)
                await arr.write(0, data)
                before = cluster.nodes[0].disk.read_strip(0).copy()
                payload = arr._stripe_payload
                arr._stripe_payload = lambda buf: payload(buf)[8:]
                piece = bytes(i * 7 % 251 for i in range(code.strip_bytes))
                await arr.write_spans([(0, piece)])
                node = cluster.nodes[0]
                assert node.metrics.get("put_crc_mismatches") == FAST_POLICY.attempts
                assert (node.disk.read_strip(0) == before).all()
                assert arr.dirty_stripes == {0: {0}}

        asyncio.run(run())


class TestReadSpans:
    def test_each_span_returns_the_crc_of_its_bytes(self):
        async def run():
            code, cluster = sim_cluster(n_stripes=4)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=4)
                await arr.write(0, data)
                sdb = arr.stripe_data_bytes
                spans = [(0, sdb), (sdb + 3, 2 * sdb), (100, 0), (3 * sdb + 1, 9)]
                got = await arr.read_spans(spans)
                assert got == [
                    (data[o : o + n], zlib.crc32(data[o : o + n])) for o, n in spans
                ]

        asyncio.run(run())

    def test_a_decoded_strip_is_hashed_once(self, monkeypatch):
        """With two data columns down, a whole-stripe read hashes the
        k - 2 surviving data strips and both parities where they land,
        and each decoded strip once; its CRC folds from theirs.  (The
        alias sanitizer's own fingerprints are not counted.)"""

        async def run():
            code, cluster = sim_cluster(n_stripes=2)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=5)
                await arr.write(0, data)
                await cluster.stop_node(0)
                await cluster.stop_node(2)
                sdb = arr.stripe_data_bytes
                hashed = []
                real = zlib.crc32

                def counting(buf, value=0):
                    if sys._getframe(1).f_globals["__name__"] != sanitizer.__name__:
                        hashed.append(memoryview(buf).nbytes)
                    return real(buf, value)

                monkeypatch.setattr(zlib, "crc32", counting)
                (got, crc), = await arr.read_spans([(sdb, sdb)])
                monkeypatch.undo()
                assert got == data[sdb : 2 * sdb] and crc == zlib.crc32(got)
                assert arr.metrics.get("decodes") == 1
                strips = [n for n in hashed if n == code.strip_bytes]
                assert len(strips) == code.k + 2  # k - 2 landed, P, Q, 2 decoded

        asyncio.run(run())


class TestNodeRefusesUncheckedStrips:
    def test_a_request_other_than_put_that_lists_crcs_is_refused(self):
        """A frame that lists ``crcs`` skips its payload CRC at
        ``read_frame``: an ``xor`` listing none, with a payload byte
        flipped on the wire, must not touch the strip or its sidecar."""

        async def run():
            code, cluster = sim_cluster(n_stripes=2)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write(0, payload_for(arr, seed=6))
                node = cluster.nodes[code.p_col]
                strip = node.disk.read_strip(0).copy()
                sidecar = node.checksums[0]
                header = {"verb": "xor", "stripes": [0], "rows": [[0]],
                          "row_bytes": code.element_size, "token": "t", "crcs": []}
                frame = bytearray(encode_frame(header, bytes(code.element_size)))
                frame[-5] ^= 0x01  # the payload's last byte
                reader, writer = await cluster.transport.connect(node.address)
                writer.write(bytes(frame))
                await writer.drain()
                reply, _ = await read_frame(reader)
                writer.close()
                assert reply["status"] == "err" and reply["error"] == "bad-request"
                assert (node.disk.read_strip(0) == strip).all()
                assert node.checksums[0] == sidecar
                assert node.metrics.get("xor_strips_applied") == 0

        asyncio.run(run())
