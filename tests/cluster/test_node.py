"""Tests of a single strip node.

The verb, disk-fault and shutdown drills run over real loopback sockets
and are marked slow: they bind actual TCP ports and pay real retry
backoff.  The equivalent logic runs socket-free in ``tests/sim`` and the
sim-seam cluster tests; those drills keep the production transport
honest (run with ``-m ""`` or ``-m slow``).  The run-read drills serve
the node on the simulation seam.
"""

import asyncio
import zlib

import numpy as np
import pytest

from repro.array.faults import NetworkFaultPlan
from repro.cluster import (
    NodeClient,
    NodeUnavailableError,
    RemoteDiskError,
    RetryPolicy,
    StripNode,
    send_verb,
)
from repro.sim import MemoryTransport, VirtualClock
from repro.utils.words import WORD_DTYPE

STRIP_WORDS = 10


def run_with_node(coro_fn, *, n_strips=8):
    """Start a node, run ``coro_fn(node, client)``, tear down."""

    async def run():
        node = StripNode(0, n_strips, STRIP_WORDS)
        await node.start()
        client = NodeClient(
            node.address,
            policy=RetryPolicy(attempts=2, timeout=0.5, backoff=0.01),
        )
        try:
            return await coro_fn(node, client)
        finally:
            client.close()
            await node.stop()

    return asyncio.run(run())


def strip(seed=0) -> np.ndarray:
    return np.random.default_rng(seed).integers(
        0, 2**64, STRIP_WORDS, dtype=WORD_DTYPE
    )


@pytest.mark.slow
class TestBasicVerbs:
    def test_ping(self):
        async def go(node, client):
            reply, _ = await client.request("ping")
            return reply

        assert run_with_node(go)["column"] == 0

    def test_put_get_round_trip(self):
        data = strip(1)

        async def go(node, client):
            await client.request("put", {"stripe": 3, "crcs": [zlib.crc32(data)]}, data.tobytes())
            _, payload = await client.request("get", {"stripe": 3})
            return payload

        assert run_with_node(go) == data.tobytes()

    def test_unwritten_strip_reads_zero(self):
        async def go(node, client):
            _, payload = await client.request("get", {"stripe": 0})
            return payload

        assert run_with_node(go) == b"\0" * (STRIP_WORDS * 8)

    def test_unknown_verb_is_error_not_disconnect(self):
        async def go(node, client):
            with pytest.raises(Exception):
                await client.request("frobnicate")
            reply, _ = await client.request("ping")  # connection model intact
            return reply

        assert run_with_node(go)["status"] == "ok"

    def test_stats_reflects_traffic(self):
        async def go(node, client):
            data = strip()
            await client.request("put", {"stripe": 0, "crcs": [zlib.crc32(data)]}, data.tobytes())
            await client.request("get", {"stripe": 0})
            reply, _ = await client.request("stats")
            return reply

        reply = run_with_node(go)
        assert reply["stats"]["counters"]["requests_put"] == 1
        assert reply["stats"]["counters"]["requests_get"] == 1
        assert reply["disk"]["reads"] == 1 and reply["disk"]["writes"] == 1


@pytest.mark.slow
class TestDiskFaultsOverTheWire:
    def test_latent_error_reported_not_retried(self):
        async def go(node, client):
            node.disk.mark_latent_error(2)
            with pytest.raises(RemoteDiskError):
                await client.request("get", {"stripe": 2})
            return client.metrics.get("retries")

        assert run_with_node(go) == 0  # deterministic answer: no retry spent

    def test_failed_disk_reported(self):
        async def go(node, client):
            node.disk.fail()
            with pytest.raises(RemoteDiskError):
                await client.request("get", {"stripe": 0})

        run_with_node(go)

    def test_fault_verb_drives_disk_and_plan(self):
        async def go(node, client):
            await client.request(
                "fault",
                {"plan": NetworkFaultPlan(latency=0.25).to_header(), "latent": [1]},
            )
            assert node.faults.latency == 0.25
            assert 1 in node.disk._latent
            await client.request("fault", {"replace": True})
            return node.faults.latency, node.disk._latent

        latency, latent = run_with_node(go)
        assert latency == 0.0 and latent == set()

    def test_bad_stripe_index_is_bad_request(self):
        async def go(node, client):
            try:
                await client.request("get", {"stripe": 999})
            except Exception as exc:
                return type(exc).__name__

        # index error -> bad-request -> retried as transient -> unavailable
        assert run_with_node(go) == "NodeUnavailableError"


@pytest.mark.slow
class TestShutdown:
    def test_shutdown_verb_stops_serving(self):
        async def run():
            node = StripNode(0, 4, STRIP_WORDS)
            await node.start()
            addr = node.address
            server_task = asyncio.ensure_future(node.serve_until_shutdown())
            reply, _ = await send_verb(addr, "shutdown")
            await asyncio.wait_for(server_task, timeout=2)
            return reply, node.running

        reply, running = asyncio.run(run())
        assert reply["status"] == "ok" and not running

    def test_stop_is_prompt_while_a_client_holds_idle_connections(self):
        """A stopped node hangs up on pooled connections: it answers
        none of them, and ``stop()`` does not wait for the client to
        leave (``Server.wait_closed()`` does, on Python >= 3.12.1)."""

        async def go(node, client):
            await asyncio.gather(*(client.request("ping") for _ in range(4)))
            pings = node.metrics.get("requests_ping")
            await asyncio.wait_for(node.stop(), timeout=2.0)
            with pytest.raises(NodeUnavailableError):
                await client.request("ping")
            return pings, node.metrics.get("requests_ping")

        pings, after = run_with_node(go)
        assert pings == 4 and after == pings


class TestRunReads:
    """A ``get`` or ``scrub-read`` reads each run of consecutive stripes
    with one disk read, strip by strip only where a run holds a latent
    strip, and answers in request order."""

    @staticmethod
    def serve(go):
        """Run ``go(node, client)`` against a node holding ``strip(s)``
        as strip ``s``, on the simulation seam."""

        async def run():
            transport, clock = MemoryTransport(), VirtualClock()
            node = StripNode(0, 10, STRIP_WORDS, transport=transport, clock=clock)
            for stripe in range(10):
                node.disk.write_strip(stripe, strip(stripe))
            await node.start()
            client = NodeClient(
                node.address, policy=RetryPolicy(attempts=1, timeout=0.5),
                transport=transport, clock=clock,
            )
            try:
                return await go(node, client)
            finally:
                client.close()
                await node.stop()

        return asyncio.run(run())

    def test_a_latent_strip_inside_a_run_is_listed_alone(self):
        async def go(node, client):
            node.disk.mark_latent_error(3)
            request = {"stripes": [2, 3, 4, 7, 8]}
            reply, payload = await client.request("get", request)
            probe, _ = await client.request("scrub-read", request)
            return reply, bytes(payload), probe, node.disk.stats.reads

        reply, payload, probe, reads = self.serve(go)
        answered = [2, 4, 7, 8]
        assert payload == b"".join(strip(s).tobytes() for s in answered)
        assert reply["crcs"] == [zlib.crc32(strip(s)) for s in answered]
        assert reply["unreadable"] == [3] and probe["unreadable"] == [3]
        assert probe["crc_stored"] == reply["crcs"] and probe["match"] == [True] * 4
        assert reads == 2 * len(answered)  # each strip read counts once

    def test_an_unsorted_request_keeps_its_order(self):
        async def go(node, client):
            _, payload = await client.request("get", {"stripes": [5, 4, 6, 7, 1, 2]})
            return bytes(payload)

        assert self.serve(go) == b"".join(strip(s).tobytes() for s in [5, 4, 6, 7, 1, 2])

    def test_a_get_reply_frames_one_part_per_run(self):
        node = StripNode(0, 10, STRIP_WORDS)
        node.disk.mark_latent_error(3)
        _, parts = node._serve("get", {"stripes": [2, 3, 4, 5, 9, 0, 1]}, b"")
        # Runs [2..5], [9] and [0, 1]; the first holds the latent strip.
        assert [len(p) // STRIP_WORDS for p in parts] == [1, 1, 1, 1, 2]
        assert all(not p.flags.writeable for p in parts)
        assert node.disk.stats.reads == 6
