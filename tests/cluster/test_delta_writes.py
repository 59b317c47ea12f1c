"""Delta writes: a small write puts its data strips and XORs into P and Q.

A sub-stripe write fetches only the data strips it touches, puts them
back patched and sends the parity delta -- ``code.update`` of each
touched element on a zeroed scratch stripe -- to the P and Q nodes as an
``xor`` of just the rows it changes.  An XOR is not idempotent, so each
strip answers a repeat of its latest write token without applying it
again, and a node drops a request whose client hung up while it waited.
A stripe with a stale column, or one whose touched data column does not
answer, falls back to the read, decode, re-encode and full put.

Every drill runs on the simulation seam and checks the stripes whole:
data, P and Q fetched from the nodes must pass ``code.verify``.
"""

import asyncio
import itertools
import random
import zlib

import numpy as np
import pytest

from repro.array.disk import LatentSectorError
from repro.array.faults import NetworkFaultPlan
from repro.cluster import ClusterScrubber, LocalCluster
from repro.codes import available_codes, make_code
from repro.gateway import ObjectGateway
from repro.sim import MemoryTransport, VirtualClock
from tests.cluster.conftest import FAST_POLICY, consistent, payload_for, sim_cluster


def node_counter(cluster, name) -> int:
    return sum(node.metrics.get(name) for node in cluster.nodes)


class TestLateRequests:
    def test_a_request_the_client_gave_up_on_never_lands(self):
        """The first attempt of ``write(0, v1)`` sleeps past its timeout;
        its retry lands v1 and ``write(0, v2)`` lands.  When the first
        attempt wakes, its client has hung up: the node drops it rather
        than write v1's column 0 over v2."""

        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                sdb = arr.stripe_data_bytes
                v1, v2 = payload_for(arr, seed=1)[:sdb], payload_for(arr, seed=2)[:sdb]
                cluster.nodes[0].faults = NetworkFaultPlan(latency=0.8, slow_requests=1)
                await arr.write(0, v1)
                assert arr.metrics.get("timeouts") == 1
                await arr.write(0, v2)
                await cluster.clock.sleep(1.0)  # the first attempt wakes
                assert cluster.nodes[0].metrics.get("abandoned_requests") == 1
                assert await arr.read(0, sdb) == v2
                assert arr.dirty_stripes == {}
                assert await consistent(arr)

        asyncio.run(run())

    def test_a_slow_xor_is_applied_once(self):
        """A delta write's P xor times out and its retry applies the
        delta; the first attempt wakes to a closed connection."""

        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = bytearray(payload_for(arr, seed=3))
                await arr.write(0, bytes(data))
                cluster.nodes[code.p_col].faults = NetworkFaultPlan(
                    latency=0.8, slow_requests=1
                )
                await arr.write(100, b"d" * 64)
                data[100:164] = b"d" * 64
                await arr.write(40, b"e" * 16)
                data[40:56] = b"e" * 16
                await cluster.clock.sleep(1.0)
                p_node = cluster.nodes[code.p_col]
                assert p_node.metrics.get("abandoned_requests") == 1
                assert p_node.metrics.get("xor_strips_applied") == 2
                assert await arr.read(0, arr.capacity) == bytes(data)
                assert await consistent(arr)

        asyncio.run(run())


class TestDeltaWrites:
    def test_a_seeded_mix_of_small_writes_keeps_every_stripe_a_codeword(self):
        async def run():
            code, cluster = sim_cluster(n_stripes=4)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = bytearray(payload_for(arr, seed=4))
                await arr.write(0, bytes(data))
                rng = random.Random(5)
                for _ in range(40):
                    length = rng.choice((1, 8, 63, 64, 65, 200, 700))
                    offset = rng.randrange(arr.capacity - length + 1)
                    chunk = rng.randbytes(length)
                    await arr.write(offset, chunk)
                    data[offset : offset + length] = chunk
                assert arr.metrics.get("delta_writes") >= 40
                assert node_counter(cluster, "xor_duplicates") == 0
                assert await arr.read(0, arr.capacity) == bytes(data)
                assert await consistent(arr)
                report = await ClusterScrubber(arr).scrub(deep=True)
                assert report.healthy and report.stripes_corrected == 0

        asyncio.run(run())

    @pytest.mark.parametrize("family", available_codes())
    def test_every_code_family_patches_its_parity_exactly(self, family):
        """``code.update`` on a zeroed stripe is each family's parity
        delta: every code here is linear."""

        async def run():
            code = make_code(family, 3, element_size=16)
            cluster = LocalCluster(
                code, 3, transport=MemoryTransport(), clock=VirtualClock()
            )
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = bytearray(payload_for(arr, seed=12))
                await arr.write(0, bytes(data))
                rng = random.Random(13)
                for _ in range(12):
                    length = rng.randint(1, 2 * code.strip_bytes)
                    offset = rng.randrange(arr.capacity - length + 1)
                    chunk = rng.randbytes(length)
                    await arr.write(offset, chunk)
                    data[offset : offset + length] = chunk
                assert arr.metrics.get("delta_writes") >= 12
                assert await arr.read(0, arr.capacity) == bytes(data)
                assert await consistent(arr)

        asyncio.run(run())

    def test_the_xor_touches_only_the_parity_rows_the_delta_changes(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write(0, payload_for(arr, seed=6))
                before = {c: cluster.nodes[c].disk.read_strip(0) for c in range(code.n_cols)}
                await arr.write(3 * 64, b"r" * 8)  # one element: column 0, row 3
                rows = code.rows
                changed = {
                    c: np.flatnonzero(
                        (cluster.nodes[c].disk.read_strip(0) != before[c])
                        .reshape(rows, -1).any(axis=1)
                    ).tolist()
                    for c in range(code.n_cols)
                }
                assert changed[0] == [3]
                assert changed[1] == changed[2] == []
                assert changed[code.p_col] == [3]
                assert len(changed[code.q_col]) in (1, 2)  # 2 for the extra bit
                assert await consistent(arr)

        asyncio.run(run())

    @pytest.mark.parametrize(
        "fault,counter",
        [("drop_mid_frame", "connection_errors"), ("corrupt_frames", "frame_errors")],
        ids=["dropped-reply", "corrupt-reply"],
    )
    @pytest.mark.parametrize("parity", ["P", "Q"])
    def test_a_mangled_xor_reply_is_retried_and_applied_once(self, fault, counter, parity):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = bytearray(payload_for(arr, seed=7))
                await arr.write(0, bytes(data))
                node = cluster.nodes[code.p_col if parity == "P" else code.q_col]
                # its next data request is the xor
                node.faults = NetworkFaultPlan(**{fault: 1})
                await arr.write(700, b"m" * 32)
                data[700:732] = b"m" * 32
                assert arr.metrics.get(counter) == 1
                assert arr.metrics.get("retries") == 1
                assert node.metrics.get("requests_xor") == 2
                assert node.metrics.get("xor_strips_applied") == 1
                assert node.metrics.get("xor_duplicates") == 1
                assert arr.dirty_stripes == {}
                assert await arr.read(0, arr.capacity) == bytes(data)
                assert await consistent(arr)

        asyncio.run(run())

    @pytest.mark.parametrize("parity", ["P", "Q"])
    def test_a_down_parity_node_is_listed_dirty_and_scrubbed(self, parity):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = bytearray(payload_for(arr, seed=8))
                await arr.write(0, bytes(data))
                col = code.p_col if parity == "P" else code.q_col
                await cluster.stop_node(col)
                await arr.write(330, b"w" * 20)
                data[330:350] = b"w" * 20
                assert arr.dirty_stripes == {0: {col}}
                assert arr.metrics.get("delta_writes") == 1
                assert await arr.read(0, arr.capacity) == bytes(data)
                arr.replace_node(col, await cluster.restart_node(col))
                report = await ClusterScrubber(arr).scrub()
                assert report.corrected == [(0, col)]
                assert arr.dirty_stripes == {}
                assert await consistent(arr)
                assert await arr.read(0, arr.capacity) == bytes(data)

        asyncio.run(run())

    def test_a_down_data_node_is_listed_dirty_after_the_fetch_falls_back(self):
        """The touched column does not answer the fetch, so the write
        takes the fallback: decode, re-encode, put every column."""

        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = bytearray(payload_for(arr, seed=9))
                await arr.write(0, bytes(data))
                await cluster.stop_node(1)
                await arr.write(330, b"f" * 20)  # column 1 of stripe 0
                data[330:350] = b"f" * 20
                assert arr.metrics.get("delta_writes") == 0
                assert arr.metrics.get("rmw_writes") == 1
                assert arr.dirty_stripes == {0: {1}}
                assert await arr.read(0, arr.capacity) == bytes(data)
                arr.replace_node(1, await cluster.restart_node(1))
                assert (await ClusterScrubber(arr).scrub()).healthy
                assert await consistent(arr)

        asyncio.run(run())

    def test_an_unreachable_data_node_costs_its_retry_budget_once_per_verb(self):
        """The delta fetch loses the slow column; the fallback decodes
        around it without asking for it again, so only the fetch and
        the put pay the node's timeouts."""

        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = bytearray(payload_for(arr, seed=15))
                await arr.write(0, bytes(data))
                slow = cluster.nodes[1]
                slow.faults = NetworkFaultPlan(latency=10.0)
                await arr.write(330, b"s" * 20)  # column 1 of stripe 0
                data[330:350] = b"s" * 20
                assert slow.metrics.get("requests_get") == FAST_POLICY.attempts
                assert arr.metrics.get("timeouts") == 2 * FAST_POLICY.attempts
                assert arr.metrics.get("delta_writes") == 0
                assert arr.dirty_stripes == {0: {1}}
                slow.faults = NetworkFaultPlan()
                assert await arr.read(0, arr.capacity) == bytes(data)
                assert (await ClusterScrubber(arr).scrub()).corrected == [(0, 1)]
                assert await consistent(arr)

        asyncio.run(run())

    @pytest.mark.parametrize("parity", ["P", "Q"])
    def test_rot_in_a_parity_strip_fails_the_xor_and_the_scrub_rewrites_it(self, parity):
        """An ``xor`` into a strip that no longer matches its sidecar
        would re-seal the sidecar over the rot, past the routine
        scrub's probe.  The node refuses it instead, so the column is
        listed stale and the scrub's dirty pass rewrites it."""

        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = bytearray(payload_for(arr, seed=16))
                await arr.write(0, bytes(data))
                col, other = (
                    (code.p_col, code.q_col) if parity == "P" else (code.q_col, code.p_col)
                )
                node = cluster.nodes[col]
                node.disk.corrupt(0, seed=4)  # the sidecar is left as it was
                await arr.write(330, b"r" * 20)
                data[330:350] = b"r" * 20
                assert node.metrics.get("xor_crc_mismatches") == 1
                assert node.metrics.get("xor_strips_applied") == 0
                assert arr.dirty_stripes == {0: {col}}
                report = await ClusterScrubber(arr).scrub()
                assert report.corrected == [(0, col)]
                assert arr.dirty_stripes == {}
                assert await consistent(arr)
                # Data column 1 and the other parity column lost: the
                # read decodes stripe 0 through the rewritten strip.
                await cluster.stop_node(1)
                await cluster.stop_node(other)
                assert await arr.read(0, arr.capacity) == bytes(data)

        asyncio.run(run())

    def test_a_stale_stripe_falls_back_and_its_object_crc_verifies(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                gw = ObjectGateway(arr)
                body = payload_for(arr, seed=10)[:700]
                (stripe,) = (await gw.put("obj", body)).stripes
                await cluster.stop_node(2)
                await gw.update("obj", 650, b"a" * 50)  # column 2: skipped
                arr.replace_node(2, await cluster.restart_node(2))
                assert arr.dirty_stripes == {stripe: {2}}
                deltas, rmws = arr.metrics.get("delta_writes"), arr.metrics.get("rmw_writes")
                await gw.update("obj", 10, b"b" * 20)  # a delta write would do
                assert arr.metrics.get("delta_writes") == deltas
                assert arr.metrics.get("rmw_writes") == rmws + 1
                assert arr.dirty_stripes == {}
                gw.cache.clear()
                want = body[:10] + b"b" * 20 + body[30:650] + b"a" * 50
                assert await gw.get("obj") == want
                assert await consistent(arr)

        asyncio.run(run())

    def test_an_update_over_a_rotted_strip_never_reads_back_wrong_bytes(self):
        """The update's fetch checks the strip against its sidecar, so
        the rotted strip is an erasure: the stripe takes the fallback,
        and the object CRC is patched from the decoded bytes."""

        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                gw = ObjectGateway(arr)
                body = payload_for(arr, seed=14)[: arr.stripe_data_bytes]
                (stripe,) = (await gw.put("obj", body)).stripes
                cluster.nodes[0].disk.corrupt(stripe, seed=3)  # sidecar kept
                gw.cache.clear()
                await gw.update("obj", 10, b"z" * 20)
                assert arr.metrics.get("rot_erasures") == 1
                assert arr.metrics.get("delta_writes") == 0
                assert arr.dirty_stripes == {}  # the fallback rewrote it
                gw.cache.clear()
                assert await gw.get("obj") == body[:10] + b"z" * 20 + body[30:]
                assert await consistent(arr)

        asyncio.run(run())

    def test_concurrent_updates_of_two_packed_neighbours_lose_nothing(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                gw = ObjectGateway(arr)
                a, b = b"A" * 100, b"B" * 100
                stat_a, stat_b = await gw.put("a", a), await gw.put("b", b)
                assert stat_a.stripes == stat_b.stripes  # packed in one stripe
                gw.cache.clear()
                deltas = arr.metrics.get("delta_writes")
                await asyncio.gather(
                    gw.update("a", 90, b"x" * 10),
                    gw.update("b", 0, b"y" * 10),
                    gw.update("a", 0, b"z" * 5),
                )
                gw.cache.clear()
                assert await gw.get("a") == b"z" * 5 + b"A" * 85 + b"x" * 10
                assert await gw.get("b") == b"y" * 10 + b"B" * 90
                assert arr.metrics.get("delta_writes") == deltas + 3
                assert await consistent(arr)

        asyncio.run(run())

    def test_write_tokens_are_unique_per_array_and_replay_under_a_seed(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                seeded = [cluster.array(rng=random.Random(3)) for _ in range(2)]
                unseeded = [cluster.array() for _ in range(2)]
                tokens = [arr._write_token() for arr in seeded + unseeded for _ in range(2)]
                assert tokens[0] == tokens[2] and tokens[1] == tokens[3]  # replayable
                assert tokens[0] != tokens[1]
                assert len(set(tokens[4:])) == 4

        asyncio.run(run())


class TestXorVerb:
    def serve(self, node, header, payload):
        return node._serve("xor", {"stripes": [0], "row_bytes": 64, **header}, payload)

    def test_a_token_applies_once_per_strip(self):
        code, cluster = sim_cluster()
        node = cluster.nodes[code.p_col]
        delta = bytes(range(64))
        reply, _ = self.serve(node, {"rows": [[2]], "token": "t-1"}, delta)
        assert reply == {"status": "ok", "applied": 1}
        strip = node.disk.read_strip(0).view(np.uint8).reshape(code.rows, 64)
        assert bytes(strip[2]) == delta and not strip[[0, 1, 3, 4]].any()
        reply, _ = self.serve(node, {"rows": [[2]], "token": "t-1"}, delta)
        assert reply["applied"] == 0
        assert (node.disk.read_strip(0).view(np.uint8).reshape(code.rows, 64) == strip).all()
        assert node.checksums[0] == zlib.crc32(node.disk.read_strip(0).data)
        reply, _ = self.serve(node, {"rows": [[2]], "token": "t-2"}, delta)
        assert reply["applied"] == 1 and not node.disk.read_strip(0).any()

    @pytest.mark.parametrize("header,size", [
        ({"rows": [[5]]}, 64),          # no such row
        ({"rows": [[1, 1]]}, 128),      # a row twice
        ({"rows": [[1]]}, 63),          # short payload
        ({"rows": [[1], [2]]}, 128),    # two row lists, one strip
        ({"rows": [[1]], "row_bytes": 48}, 48),  # rows do not tile the strip
    ])
    def test_a_malformed_xor_is_refused_before_any_strip_changes(self, header, size):
        code, cluster = sim_cluster()
        node = cluster.nodes[code.p_col]
        with pytest.raises(ValueError):
            self.serve(node, {"token": "t", **header}, bytes(size))
        assert 0 not in node.xor_tokens and not node.disk.read_strip(0).any()

    def test_a_released_strip_forgets_its_token(self):
        code, cluster = sim_cluster()
        node = cluster.nodes[code.p_col]
        self.serve(node, {"rows": [[0]], "token": "t-1"}, b"\x01" * 64)
        assert node.xor_tokens == {0: "t-1"}
        reply, _ = node._serve("release", {"stripe": 0}, b"")
        assert reply["released"] and node.xor_tokens == {}

    def test_a_strip_that_fails_its_sidecar_fails_the_request_whole(self):
        code, cluster = sim_cluster()
        node = cluster.nodes[code.q_col]
        zeros = zlib.crc32(bytes(code.strip_bytes))
        node._serve("put", {"stripes": [0, 1], "crcs": [zeros] * 2}, bytes(2 * code.strip_bytes))
        node.disk.corrupt(1, seed=5)
        rotted = node.disk.read_strip(1)
        with pytest.raises(LatentSectorError):
            node._serve(
                "xor",
                {"stripes": [0, 1], "rows": [[0], [0]], "row_bytes": 64, "token": "t"},
                b"\xff" * 128,
            )
        assert not node.disk.read_strip(0).any() and not node.xor_tokens
        assert (node.disk.read_strip(1) == rotted).all()
        assert node._serve("scrub-read", {"stripe": 1}, b"")[0]["match"] == [False]

    def test_a_latent_strip_fails_the_request_whole(self):
        code, cluster = sim_cluster()
        node = cluster.nodes[code.q_col]
        node.disk.mark_latent_error(1)
        with pytest.raises(LatentSectorError):
            node._serve(
                "xor",
                {"stripes": [0, 1], "rows": [[0], [0]], "row_bytes": 64, "token": "t"},
                b"\xff" * 128,
            )
        assert not node.disk.read_strip(0).any() and not node.xor_tokens


class TestXorCrashSweep:
    @pytest.mark.parametrize("point", ["xor-before-apply", "xor-before-reply"])
    @pytest.mark.parametrize("parity", ["P", "Q"])
    def test_a_parity_node_crash_inside_xor_is_listed_dirty_and_scrubbed(
        self, point, parity
    ):
        """Whether the delta landed or not, the client cannot tell: the
        parity column is listed dirty, reads decode around it, and a
        scrub after the restart rewrites it."""

        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = bytearray(payload_for(arr, seed=11))
                await arr.write(0, bytes(data))
                col = code.p_col if parity == "P" else code.q_col
                cluster.nodes[col].crashes.arm(point)
                await arr.write(1000, b"c" * 40)  # stripe 1, column 0
                data[1000:1040] = b"c" * 40
                assert not cluster.nodes[col].running
                assert arr.dirty_stripes == {1: {col}}
                assert await arr.read(0, arr.capacity) == bytes(data)
                arr.replace_node(col, await cluster.restart_node(col))
                report = await ClusterScrubber(arr).scrub()
                assert report.corrected == [(1, col)]
                assert arr.dirty_stripes == {}
                assert (await ClusterScrubber(arr).scrub(deep=True)).healthy
                assert await consistent(arr)
                assert await arr.read(0, arr.capacity) == bytes(data)

        asyncio.run(run())


class TestTornDeltaWrite:
    """A client that dies inside a delta write leaves any subset of its
    three strips landed: the data strip, P and Q.  Every sidecar still
    matches its strip, so only a deep scrub sees the stripe, and any
    subset is one column from the old codeword or the new one: the
    locator settles it all-old when 0 or 1 strip landed, all-new when 2
    or 3 did."""

    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_a_deep_scrub_settles_every_torn_subset_on_one_codeword(self, k):
        async def tear(landed: tuple[str, ...]) -> tuple[list, str]:
            code, cluster = sim_cluster(k=k, p=7, n_stripes=2)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write(0, payload_for(arr, seed=k))
                # read_stripe fetches only the data columns: encode P and Q.
                old = await arr.read_stripe(0)
                code.encode(old)
                new = old.copy()
                new[1, 3, 2] ^= np.uint64(0x0123456789ABCDEF)  # 8 B in column 1
                code.encode(new)
                torn = {"data": 1, "P": code.p_col, "Q": code.q_col}
                assert [c for c in range(code.n_cols)
                        if not np.array_equal(old[c], new[c])] == sorted(torn.values())
                for name in landed:
                    col = torn[name]
                    strip = new[col].tobytes()
                    await arr.client_for_node(arr.holders(0)[col]).request(
                        "put", {"stripe": 0, "crcs": [zlib.crc32(strip)]}, strip
                    )
                # The client is gone: a fresh one lists no stale column.
                fresh = cluster.array(policy=FAST_POLICY)
                assert fresh.dirty_stripes == {}
                plain = await ClusterScrubber(fresh).scrub()
                deep = await ClusterScrubber(fresh).scrub(deep=True)
                assert deep.healthy
                stored = {
                    col: cluster.nodes[col].disk.read_strip(0).reshape(old[col].shape)
                    for col in torn.values()
                }
                if all(np.array_equal(stored[c], old[c]) for c in stored):
                    state = "old"
                elif all(np.array_equal(stored[c], new[c]) for c in stored):
                    state = "new"
                else:
                    state = "mixed"
                return plain.corrected, state

        async def run():
            subsets = [
                subset for size in range(4)
                for subset in itertools.combinations(("data", "P", "Q"), size)
            ]
            outcome = {subset: await tear(subset) for subset in subsets}
            assert outcome == {
                subset: ([], "old" if len(subset) <= 1 else "new")
                for subset in subsets
            }

        asyncio.run(run())
