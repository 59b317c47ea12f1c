"""One RPC per node per operation, on the simulation seam.

``ClusterArray`` batches every strip an operation touches: a read, a
write, a gateway object, a rebuild window and a scrub window send one
``get``/``put``/``scrub-read`` per column and serving node, split only
where a frame would exceed ``MAX_FRAME_BYTES``.  These drills pin the RPC counts (the client's
``requests`` counter counts batches), show that a fault inside a batch
costs only what it must -- a latent sector its own strip, a failed disk
its column, a mangled reply one retry -- and that on an elastic array a
batch is grouped per stripe by holder, through epoch bumps and
in-flight migrations.
"""

import asyncio
import zlib

import numpy as np
import pytest

from repro.array.faults import NetworkFaultPlan
from repro.cluster import (
    ClusterScrubber,
    RebuildScheduler,
    StripNode,
    node as node_mod,
    protocol,
)
from repro.gateway import ObjectGateway
from repro.utils.words import WORD_DTYPE
from tests.cluster.conftest import (
    FAST_POLICY,
    consistent,
    elastic_sim_cluster,
    payload_for,
    sim_cluster,
)

#: object size spanning seven whole stripes at k=3, p=5, 64 B elements
SEVEN = 7


def rpcs(arr) -> int:
    return arr.metrics.get("requests")


def verbs(cluster, since=None) -> dict[str, int]:
    """Data requests the nodes served, per verb (minus ``since``)."""
    total: dict[str, int] = {}
    for node in cluster.nodes:
        for verb in ("get", "put", "xor", "scrub-read"):
            total[verb] = total.get(verb, 0) + node.metrics.get(f"requests_{verb}")
    if since is not None:
        total = {verb: n - since.get(verb, 0) for verb, n in total.items()}
    return {verb: n for verb, n in total.items() if n}


async def counted(arr, coro):
    """Await ``coro``; returns ``(its result, RPCs it issued)``."""
    before = rpcs(arr)
    result = await coro
    return result, rpcs(arr) - before


class RecordingWriter:
    """A stream writer that keeps every buffer it is handed."""

    def __init__(self) -> None:
        self.writes: list = []

    def write(self, data) -> None:
        self.writes.append(data)

    async def drain(self) -> None:
        pass


def parse(frame: bytes):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(frame)
        reader.feed_eof()
        return await protocol.read_frame(reader)

    return asyncio.run(run())


class TestWire:
    def test_write_frame_hands_the_transport_one_bytes(self):
        payload = bytearray(b"\x07" * 64)
        writer = RecordingWriter()
        header = {"verb": "put", "stripes": [1]}
        asyncio.run(protocol.write_frame(writer, header, memoryview(payload)))
        (frame,) = writer.writes
        assert type(frame) is bytes
        payload[:] = bytes(64)  # the caller may reuse its buffer at once
        assert parse(frame) == (header, b"\x07" * 64)

    def test_batched_get_reply_is_one_write_listing_unreadable_strips(self):
        node = StripNode(0, 4, 10)
        strips = [np.full(10, s + 1, dtype=WORD_DTYPE) for s in range(3)]
        for stripe, words in enumerate(strips):
            node.disk.write_strip(stripe, words)
        node.disk.mark_latent_error(1)
        writer = RecordingWriter()
        request = {"verb": "get", "stripes": [0, 1, 2]}
        assert asyncio.run(node._dispatch(request, b"", writer))
        (frame,) = writer.writes
        header, payload = parse(frame)
        crcs = [zlib.crc32(strips[s].tobytes()) for s in (0, 2)]  # adopted sidecars
        assert header == {"status": "ok", "crcs": crcs, "unreadable": [1]}
        assert payload == strips[0].tobytes() + strips[2].tobytes()

    def test_get_with_no_readable_strip_is_a_latent_error(self):
        node = StripNode(0, 4, 10)
        for stripe in (0, 1):
            node.disk.mark_latent_error(stripe)
        writer = RecordingWriter()
        asyncio.run(node._dispatch({"verb": "get", "stripes": [0, 1]}, b"", writer))
        header, payload = parse(writer.writes[0])
        assert (header["status"], header["error"], payload) == ("err", "latent", b"")


class TestRpcCounts:
    def test_read_of_seven_stripes_is_one_get_per_data_column(self):
        async def run():
            code, cluster = sim_cluster(n_stripes=8)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr)
                await arr.write(0, data)
                span = SEVEN * arr.stripe_data_bytes
                got, n = await counted(arr, arr.read(0, span))
                assert got == data[:span]
                assert n == code.k  # per stripe, this was 7k

        asyncio.run(run())

    def test_read_with_a_data_node_stopped_costs_k_gets_and_no_q(self):
        """One lost data column decodes from the other data columns and
        P: k gets, as on a healthy array; Q is never asked."""

        async def run():
            code, cluster = sim_cluster(n_stripes=8)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=14)
                await arr.write(0, data)
                await cluster.stop_node(1)
                before = verbs(cluster)
                assert await arr.read(0, arr.stripe_data_bytes) == data[: arr.stripe_data_bytes]
                assert verbs(cluster, since=before) == {"get": code.k}
                assert cluster.nodes[code.q_col].metrics.get("requests_get") == 0
                assert arr.metrics.get("decodes") == 1

        asyncio.run(run())

    def test_read_that_also_loses_p_costs_one_more_get_to_q(self):
        async def run():
            code, cluster = sim_cluster(n_stripes=8)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=15)
                await arr.write(0, data)
                await cluster.stop_node(1)
                cluster.nodes[code.p_col].disk.mark_latent_error(0)
                before = verbs(cluster)
                assert await arr.read(0, arr.stripe_data_bytes) == data[: arr.stripe_data_bytes]
                assert verbs(cluster, since=before) == {"get": code.k + 1}
                assert cluster.nodes[code.q_col].metrics.get("requests_get") == 1
                assert arr.metrics.get("decodes") == 1

        asyncio.run(run())

    def test_write_of_full_stripes_is_one_put_per_column(self):
        async def run():
            code, cluster = sim_cluster(n_stripes=8)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=3)
                _, n = await counted(arr, arr.write(0, data))
                assert n == code.k + 2  # per stripe, this was n(k + 2)
                assert arr.metrics.get("full_stripe_writes") == arr.n_stripes
                assert await arr.read(0, arr.capacity) == data

        asyncio.run(run())

    def test_rebuild_window_is_one_get_per_source_plus_one_push(self):
        """A window fetches only what the decode of its lost data column
        reads -- the other data columns and P, k gets, no Q -- and pushes
        the rebuilt strips in one put."""

        async def run():
            code, cluster = sim_cluster(n_stripes=8)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write(0, payload_for(arr, seed=4))
                lost = cluster.nodes[2].disk
                await cluster.stop_node(2)
                spare = await cluster.start_replacement(2)
                sched = RebuildScheduler(arr, batch_stripes=4)
                before = verbs(cluster)
                rebuilt, n = await counted(arr, sched.rebuild_column(2, spare))
                assert rebuilt == arr.n_stripes
                windows = arr.n_stripes // 4
                assert n == windows * (code.k + 1)  # was k + 2: every survivor
                assert verbs(cluster, since=before) == {"get": windows * code.k}
                assert cluster.nodes[code.q_col].metrics.get("requests_get") == 0
                assert cluster.replacements[2].metrics.get("requests_put") == windows
                rebuilt_disk = cluster.replacements[2].disk
                for strip in range(arr.n_stripes):
                    assert (rebuilt_disk.read_strip(strip) == lost.read_strip(strip)).all()

        asyncio.run(run())

    def test_gateway_single_stripe_ops_keep_their_counts(self):
        """A one-stripe get and a full-stripe put cost k and k + 2 RPCs,
        as before batching; a cache-cold 64 B update inside one column
        costs 4 -- a get and a put of its data strip and an xor into P
        and into Q (3k + 2 while it read the stripe twice and rewrote it
        whole)."""

        async def run():
            code, cluster = sim_cluster(n_stripes=8)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                gw = ObjectGateway(arr)
                body = payload_for(arr, seed=5)[: arr.stripe_data_bytes]
                _, n_put = await counted(arr, gw.put("one", body))
                gw.cache.clear()
                got, n_get = await counted(arr, gw.get("one"))
                assert got == body
                gw.cache.clear()
                before = verbs(cluster)
                _, n_update = await counted(arr, gw.update("one", 100, b"u" * 64))
                assert (n_get, n_put, n_update) == (code.k, code.k + 2, 4)
                assert verbs(cluster, since=before) == {"get": 1, "put": 1, "xor": 2}
                gw.cache.clear()
                assert await gw.get("one") == body[:100] + b"u" * 64 + body[164:]

        asyncio.run(run())

    def test_update_across_a_column_boundary_costs_six(self):
        """64 B from byte 300 of a 320 B strip touch columns 0 and 1: a
        get and a put for each, and one xor each into P and Q."""

        async def run():
            code, cluster = sim_cluster(n_stripes=8)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                gw = ObjectGateway(arr)
                body = payload_for(arr, seed=11)[: arr.stripe_data_bytes]
                await gw.put("one", body)
                gw.cache.clear()
                assert 300 < code.strip_bytes < 364
                before = verbs(cluster)
                _, n = await counted(arr, gw.update("one", 300, b"x" * 64))
                assert n == 6
                assert verbs(cluster, since=before) == {"get": 2, "put": 2, "xor": 2}
                gw.cache.clear()
                assert await gw.get("one") == body[:300] + b"x" * 64 + body[364:]

        asyncio.run(run())

    def test_update_of_a_stripe_with_a_stale_column_falls_back(self):
        """A stale data column sends the update down the fallback: one
        read of what the decode around the stale strip reads (the other
        data columns and P: k gets) and a put of every column -- 2k + 2
        RPCs, where reading every column cost 2(k + 2) and reading the
        object for its CRC and then again for the RMW 3(k + 2)."""

        async def run():
            code, cluster = sim_cluster(n_stripes=8)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                gw = ObjectGateway(arr)
                body = payload_for(arr, seed=12)[: arr.stripe_data_bytes]
                (stripe,) = (await gw.put("one", body)).stripes
                await cluster.stop_node(0)
                await gw.update("one", 0, body[::-1])  # skips column 0
                arr.replace_node(0, await cluster.restart_node(0))
                assert arr.dirty_stripes == {stripe: {0}}
                gw.cache.clear()
                before, decodes = verbs(cluster), arr.metrics.get("decodes")
                _, n = await counted(arr, gw.update("one", 100, b"s" * 64))
                assert n == 2 * code.k + 2
                assert verbs(cluster, since=before) == {"get": code.k, "put": code.n_cols}
                assert arr.metrics.get("decodes") == decodes + 1
                assert arr.dirty_stripes == {}
                gw.cache.clear()
                want = body[::-1][:100] + b"s" * 64 + body[::-1][164:]
                assert await gw.get("one") == want  # the patched CRC verifies

        asyncio.run(run())

    def test_batch_splits_where_a_frame_would_exceed_the_limit(self, monkeypatch):
        code, cluster = sim_cluster(n_stripes=8)
        limit = 2 * code.strip_bytes
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", limit)
        payloads: list[int] = []

        def recording(frame_parts):
            def parts(header, payload=b""):
                out = frame_parts(header, payload)
                payloads.append(sum(map(len, out[2:-1])))  # the payload's parts
                return out

            return parts

        monkeypatch.setattr(protocol, "frame_parts", recording(protocol.frame_parts))
        monkeypatch.setattr(node_mod, "frame_parts", recording(node_mod.frame_parts))

        async def run():
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=6)
                span = SEVEN * arr.stripe_data_bytes
                _, n_write = await counted(arr, arr.write(0, data[:span]))
                got, n_read = await counted(arr, arr.read(0, span))
                assert got == data[:span]
                frames = -(-SEVEN // 2)  # two strips a frame
                assert (n_write, n_read) == (frames * code.n_cols, frames * code.k)
                assert all(n.metrics.get("bad_frames") == 0 for n in cluster.nodes)
                assert arr.metrics.get("frame_errors") == 0

        asyncio.run(run())
        assert max(payloads) == limit  # full frames carry two strips, no more


class TestRepairRpcCounts:
    """The scrub and the rebuild's write-back ride the batched path: at
    the system benchmark's geometry (k=6, p=7) over 64 stripes, each
    scrub window of 8 stripes costs one RPC per column and holder a
    round, where the scrub used to send one per strip."""

    async def stale_in_column(self, cluster, arr, col: int, n: int) -> None:
        """Rewrite the first ``n`` stripes while ``col``'s node is down,
        then bring it back: ``n`` stripes stale in one column."""
        await arr.write(0, payload_for(arr, seed=1))
        await cluster.stop_node(col)
        await arr.write(0, payload_for(arr, seed=2)[: n * arr.stripe_data_bytes])
        await cluster.restart_node(col)
        arr.replace_node(col, cluster.nodes[col].address)
        assert arr.dirty_stripes == {s: {col} for s in range(n)}

    def test_clean_and_deep_passes_cost_one_rpc_per_column_a_window(self):
        async def run():
            code, cluster = sim_cluster(k=6, p=7, n_stripes=64)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write(0, payload_for(arr))
                scrubber = ClusterScrubber(arr, window=8)
                before = verbs(cluster)
                report = await scrubber.scrub()
                assert report.fast_path_hits == 64
                assert verbs(cluster, since=before) == {"scrub-read": 64}  # was 512
                before = verbs(cluster)
                report = await scrubber.scrub(deep=True)
                assert report.stripes_clean == 64 and report.fast_path_hits == 0
                assert verbs(cluster, since=before) == {"get": 64}  # was 512

        asyncio.run(run())

    def test_dirty_first_pass_fetches_and_puts_back_a_window_at_a_time(self):
        """16 stripes stale in column 3 fill the first two windows: no
        probe, 7 gets (never the stale column) and 1 put each; the other
        six windows are 8 probes each."""

        async def run():
            code, cluster = sim_cluster(k=6, p=7, n_stripes=64)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await self.stale_in_column(cluster, arr, 3, 16)
                before = verbs(cluster)
                report = await ClusterScrubber(arr, window=8).scrub()
                assert report.corrected == [(s, 3) for s in range(16)]
                assert report.fast_path_hits == 48
                assert report.healthy and arr.dirty_stripes == {}
                # was 128 gets, 16 puts and 384 probes
                assert verbs(cluster, since=before) == {"get": 14, "put": 2, "scrub-read": 48}

        asyncio.run(run())

    def test_rebuild_puts_a_windows_stale_strips_back_in_one_put(self):
        """Rebuilding column 1 over 16 stripes stale in column 3: four
        windows push to the replacement, and the first puts its decoded
        column-3 strips back in one more put (was one per strip)."""

        async def run():
            code, cluster = sim_cluster(k=6, p=7, n_stripes=64)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await self.stale_in_column(cluster, arr, 3, 16)
                await cluster.stop_node(1)
                spare = await cluster.start_replacement(1)
                stale_puts = cluster.nodes[3].metrics.get("requests_put")
                before = verbs(cluster)
                await RebuildScheduler(arr, batch_stripes=16).rebuild_column(1, spare)
                assert cluster.replacements[1].metrics.get("requests_put") == 4
                assert verbs(cluster, since=before)["put"] == 1  # 5 in all, was 20
                assert cluster.nodes[3].metrics.get("requests_put") == stale_puts + 1
                assert arr.dirty_stripes == {}
                cluster.promote_replacement(1)
                assert await consistent(arr)
                assert await arr.read(0, arr.capacity) == (
                    payload_for(arr, seed=2)[: 16 * arr.stripe_data_bytes]
                    + payload_for(arr, seed=1)[16 * arr.stripe_data_bytes :]
                )

        asyncio.run(run())


class TestFaultsInsideABatch:
    """One fault costs its strip, its column, or one retry -- never
    the whole batch."""

    async def seven_stripe_object(self, cluster):
        arr = cluster.array(policy=FAST_POLICY)
        gw = ObjectGateway(arr)
        body = payload_for(arr, seed=7)[: SEVEN * arr.stripe_data_bytes]
        stat = await gw.put("obj", body)
        assert len(stat.stripes) == SEVEN
        gw.cache.clear()
        return arr, gw, body, stat.stripes

    def test_latent_sectors_cost_only_their_strips(self):
        async def run():
            code, cluster = sim_cluster(n_stripes=8)
            async with cluster:
                arr, gw, body, stripes = await self.seven_stripe_object(cluster)
                for col, stripe in zip(range(3), (stripes[1], stripes[3], stripes[5])):
                    cluster.nodes[col].disk.mark_latent_error(stripe)
                assert await gw.get("obj") == body
                assert arr.metrics.get("decodes") == 3

        asyncio.run(run())

    def test_failed_disk_costs_its_column_on_every_stripe(self):
        async def run():
            code, cluster = sim_cluster(n_stripes=8)
            async with cluster:
                arr, gw, body, _ = await self.seven_stripe_object(cluster)
                cluster.nodes[1].disk.fail()
                assert await gw.get("obj") == body
                assert arr.metrics.get("decodes") == SEVEN

        asyncio.run(run())

    @pytest.mark.parametrize(
        "plan,counters,refetched",
        [
            # The flipped byte lands in a strip, which fails its CRC at
            # the client and is fetched once more, alone: a request.
            (NetworkFaultPlan(corrupt_frames=1),
             {"strip_crc_mismatches": 1, "strip_refetches": 1, "retries": 0}, 1),
            # The cut-off frame is retried whole: an attempt.
            (NetworkFaultPlan(drop_mid_frame=1),
             {"connection_errors": 1, "retries": 1, "strip_refetches": 0}, 0),
        ],
        ids=["corrupt-frame", "drop-mid-frame"],
    )
    def test_mangled_reply_costs_one_retry_of_its_batch(self, plan, counters, refetched):
        async def run():
            code, cluster = sim_cluster(n_stripes=8)
            async with cluster:
                arr, gw, body, _ = await self.seven_stripe_object(cluster)
                cluster.nodes[0].faults = plan
                got, n = await counted(arr, gw.get("obj"))
                assert got == body
                assert {name: arr.metrics.get(name) for name in counters} == counters
                assert arr.metrics.get("decodes") == 0
                assert arr.metrics.get("rot_erasures") == 0
                assert arr.dirty_stripes == {}
                assert n == code.k + refetched

        asyncio.run(run())

    def test_batched_put_refreshes_every_sidecar(self):
        async def run():
            code, cluster = sim_cluster(n_stripes=8)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                sdb = arr.stripe_data_bytes
                first = payload_for(arr, seed=8)
                for stripe in range(arr.n_stripes):  # a sidecar on every strip
                    await arr.write(stripe * sdb, first[stripe * sdb : (stripe + 1) * sdb])
                _, n = await counted(arr, arr.write(0, payload_for(arr, seed=9)))
                assert n == code.n_cols  # one batched put per column
                stripes = list(range(arr.n_stripes))
                for col, node in enumerate(cluster.nodes):
                    reply, _ = await arr.client_for_node(col).request(
                        "scrub-read", {"stripes": stripes}
                    )
                    assert reply["match"] == [True] * len(stripes), col
                    assert reply["crc_stored"] == [
                        zlib.crc32(node.disk.read_strip(stripe).data) for stripe in stripes
                    ]

        asyncio.run(run())


class TestElasticBatches:
    """Batches group each column's stripes by *their* holders."""

    async def spread_object(self, cluster):
        """A gateway over the pool and a 3-stripe object whose stripes
        have different holders for some column."""
        arr = cluster.array(policy=FAST_POLICY)
        gw = ObjectGateway(arr)
        body = payload_for(arr, seed=10)[: 3 * arr.stripe_data_bytes]
        stat = await gw.put("obj", body)
        stripes = list(stat.stripes)
        assert len(stripes) == 3
        assert any(
            len({arr.holders(s)[col] for s in stripes}) > 1
            for col in range(arr.code.n_cols)
        )
        return arr, gw, body, stripes

    def test_gateway_put_reads_back_stripe_by_stripe(self):
        async def run():
            _, cluster = elastic_sim_cluster(n_stripes=8)
            async with cluster:
                arr, gw, body, stripes = await self.spread_object(cluster)
                sdb = arr.stripe_data_bytes
                for i, stripe in enumerate(stripes):
                    buf = await arr.read_stripe(stripe)
                    assert bytes(arr._stripe_payload(buf)) == body[i * sdb : (i + 1) * sdb]
                gw.cache.clear()
                assert await gw.get("obj") == body

        asyncio.run(run())

    def test_batched_read_of_stripes_written_one_at_a_time(self):
        async def run():
            code, cluster = elastic_sim_cluster(n_stripes=8)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                sdb = arr.stripe_data_bytes
                data = payload_for(arr, seed=11)[: 3 * sdb]
                for stripe in range(3):
                    buf = code.alloc_stripe()
                    arr._fill_data_columns(buf, data[stripe * sdb : (stripe + 1) * sdb])
                    code.encode(buf)
                    assert await arr.write_stripe(stripe, buf) == []
                assert await arr.read(0, 3 * sdb) == data
                assert arr.metrics.get("decodes") == 0

        asyncio.run(run())

    def test_epoch_bump_between_resolving_and_sending_costs_one_retry(self):
        """The batch resolves column 0 to a node that is gone by the
        time it is sent; at the new epoch the stripes live elsewhere."""

        async def run():
            _, cluster = elastic_sim_cluster(n_stripes=8)
            async with cluster:
                arr, gw, body, stripes = await self.spread_object(cluster)
                true = {s: arr.holders(s) for s in stripes}
                ghost = await cluster.add_node()
                await cluster.stop_node(ghost)
                for s in stripes:
                    arr.locations[s] = (ghost, *true[s][1:])
                send = arr._node_request
                moved = []

                async def racing(*args):
                    if not moved:  # the first send of the batch
                        moved.append(True)
                        arr.locations.update(true)
                        arr.membership.bump()
                    return await send(*args)

                arr._node_request = racing
                gw.cache.clear()
                assert await gw.get("obj") == body
                assert moved
                assert arr.metrics.get("epoch_retries") == 1
                assert arr.metrics.get("decodes") == 0

        asyncio.run(run())

    def test_batched_write_waits_for_an_inflight_migration(self):
        async def run():
            code, cluster = elastic_sim_cluster(n_stripes=8)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                sdb = arr.stripe_data_bytes
                await arr.write(0, payload_for(arr, seed=12)[: 3 * sdb])
                reb = cluster.rebalancer(arr)
                # Draining a holder of stripe 1 makes it misplaced.
                arr.membership.drain(arr.holders(1)[0])
                assert reb.targets(1) != arr.holders(1)
                gate = asyncio.Event()
                migrate = reb._migrate_locked

                async def paused(*args):
                    await gate.wait()
                    await migrate(*args)

                reb._migrate_locked = paused
                migration = asyncio.ensure_future(reb.migrate_stripe(1))
                await cluster.clock.sleep(1.0)
                assert 1 in arr.migrating
                data = payload_for(arr, seed=13)[: 3 * sdb]
                write = asyncio.ensure_future(arr.write(0, data))
                await cluster.clock.sleep(1.0)
                assert not write.done()  # holds stripe 0, waits on stripe 1
                gate.set()
                assert await migration
                await write
                assert arr.holders(1) == reb.targets(1)
                assert await arr.read(0, 3 * sdb) == data
                for stripe in range(3):
                    buf = await arr.read_stripe(stripe)
                    assert bytes(arr._stripe_payload(buf)) == data[
                        stripe * sdb : (stripe + 1) * sdb
                    ]

        asyncio.run(run())

