"""MemoryTransport semantics: the failure surface must look exactly
like real sockets (refused connections, EOF on close) minus the kernel
timing noise.  AsyncioTransport's receive path is driven by hand, as
the event loop drives it, with no socket; the one real-socket test
checks that its connections, which all read into one buffer, keep
their bytes apart."""

import asyncio
import os
import struct
import sys

import numpy as np
import pytest

from repro.cluster.protocol import MAGIC, encode_frame, read_frame
from repro.sim import MemoryTransport
from repro.sim.transport import READ_SIZE, AsyncioTransport, _FrameReader, _StreamProtocol


def test_serve_connect_round_trip():
    async def run():
        transport = MemoryTransport()
        served = []

        async def echo(reader, writer):
            data = await reader.readexactly(5)
            served.append(data)
            writer.write(data[::-1])
            await writer.drain()
            writer.close()

        listener = await transport.serve(echo, "127.0.0.1", 0)
        reader, writer = await transport.connect(listener.address)
        writer.write(b"hello")
        await writer.drain()
        back = await reader.readexactly(5)
        writer.close()
        listener.close()
        await listener.wait_closed()
        return served, back

    served, back = asyncio.run(run())
    assert served == [b"hello"]
    assert back == b"olleh"


def test_connect_to_unbound_address_refused():
    async def run():
        transport = MemoryTransport()
        with pytest.raises(ConnectionRefusedError):
            await transport.connect(("127.0.0.1", 50000))

    asyncio.run(run())


def test_closed_listener_refuses_new_connections():
    async def run():
        transport = MemoryTransport()

        async def handler(reader, writer):
            writer.close()

        listener = await transport.serve(handler, "127.0.0.1", 0)
        addr = listener.address
        await transport.connect(addr)  # reachable while bound
        listener.close()
        with pytest.raises(ConnectionRefusedError):
            await transport.connect(addr)

    asyncio.run(run())


def test_peer_close_feeds_eof():
    """A mid-frame close surfaces as IncompleteReadError, the same
    exception a dropped TCP connection produces."""

    async def run():
        transport = MemoryTransport()

        async def rude(reader, writer):
            writer.write(b"par")  # half a frame...
            writer.close()  # ...then hang up

        listener = await transport.serve(rude, "127.0.0.1", 0)
        reader, writer = await transport.connect(listener.address)
        with pytest.raises(asyncio.IncompleteReadError):
            await reader.readexactly(6)

    asyncio.run(run())


def test_close_ends_own_read_and_drops_late_bytes():
    """Closing one end ends that end's own pending read as well, as
    closing a socket does (so a server can hang up on an idle client),
    and bytes the other end writes afterwards are dropped."""

    async def run():
        transport = MemoryTransport()
        own_read = []

        async def hang_up(reader, writer):
            pending = asyncio.ensure_future(reader.read())
            await asyncio.sleep(0)
            writer.close()
            own_read.append(await pending)

        listener = await transport.serve(hang_up, "127.0.0.1", 0)
        reader, writer = await transport.connect(listener.address)
        assert await reader.read() == b""  # the peer's EOF
        writer.write(b"late")  # towards the closed end: dropped
        await writer.drain()
        await asyncio.sleep(0)
        return own_read

    assert asyncio.run(run()) == [b""]


def test_write_after_close_raises_reset():
    async def run():
        transport = MemoryTransport()

        async def handler(reader, writer):
            await reader.read()

        listener = await transport.serve(handler, "127.0.0.1", 0)
        _, writer = await transport.connect(listener.address)
        writer.close()
        assert writer.is_closing()
        with pytest.raises(ConnectionResetError):
            writer.write(b"late")

    asyncio.run(run())


def test_transports_are_isolated_namespaces():
    async def run():
        net_a, net_b = MemoryTransport(), MemoryTransport()

        async def handler(reader, writer):
            writer.close()

        listener = await net_a.serve(handler, "127.0.0.1", 0)
        with pytest.raises(ConnectionRefusedError):
            await net_b.connect(listener.address)

    asyncio.run(run())


def test_ephemeral_ports_are_distinct_and_rebindable():
    async def run():
        transport = MemoryTransport()

        async def handler(reader, writer):
            writer.close()

        a = await transport.serve(handler, "127.0.0.1", 0)
        b = await transport.serve(handler, "127.0.0.1", 0)
        assert a.address != b.address
        with pytest.raises(OSError):
            await transport.serve(handler, *a.address)  # explicit clash
        a.close()
        again = await transport.serve(handler, *a.address)  # rebindable
        assert again.address == a.address

    asyncio.run(run())


# -- AsyncioTransport's receive path, driven by hand ---------------------------

#: bytes read_frame reads before a frame's body (magic and two lengths)
PREAMBLE = 12
HEADER = {"verb": "put"}  # lists no crcs: the frame CRC covers the payload


class _StubTransport(asyncio.Transport):
    """The socket side of a connection, minus the socket."""

    def __init__(self) -> None:
        super().__init__()
        self.paused = False

    def pause_reading(self) -> None:
        self.paused = True

    def resume_reading(self) -> None:
        self.paused = False


class _Connection:
    """One connection's protocol and reader, fed as the loop feeds them:
    ``get_buffer``, bytes written into what it returns, then
    ``buffer_updated``.  ``fed`` counts the bytes that took the
    stream's copying path (``feed_data``)."""

    def __init__(self) -> None:
        loop = asyncio.get_running_loop()
        self.reader = _FrameReader(loop)
        self.buffer = AsyncioTransport()._buffer
        self.protocol = _StreamProtocol(self.buffer, self.reader, loop=loop)
        self.protocol.connection_made(_StubTransport())
        self.fed = 0
        feed_data = self.reader.feed_data

        def counting(data) -> None:
            self.fed += len(data)
            feed_data(data)

        self.reader.feed_data = counting

    async def feed(self, data: bytes, chunk: int) -> None:
        """Deliver ``data`` in reads of at most ``chunk`` bytes, letting
        the loop run after each."""
        source, at = memoryview(data), 0
        while at < len(data):
            buf = self.protocol.get_buffer(-1)
            n = min(len(buf), chunk, len(data) - at)
            buf[:n] = source[at : at + n]
            self.protocol.buffer_updated(n)
            at += n
            await asyncio.sleep(0)


def _frame(body: int) -> tuple[bytes, bytes]:
    """A frame whose body (header, payload and CRC) is ``body`` bytes,
    and its payload."""
    hlen = len(encode_frame(HEADER)) - PREAMBLE - 4
    payload = np.random.default_rng(body).bytes(body - hlen - 4)
    frame = encode_frame(HEADER, payload)
    assert len(frame) == PREAMBLE + body
    return frame, payload


BODIES = {
    "read_size-1": READ_SIZE - 1,
    "read_size": READ_SIZE,
    "read_size+1": READ_SIZE + 1,
    "4MiB": 4 << 20,
}
# Four million single-byte reads would take about ten seconds and cross
# no boundary the frames around READ_SIZE do not.
CASES = [(name, chunk) for name in BODIES for chunk in (1, 4096, 65536)
         if (name, chunk) != ("4MiB", 1)]


@pytest.mark.parametrize("name, chunk", CASES, ids=[f"{n}-by-{c}" for n, c in CASES])
def test_read_frame_gets_every_frame_intact(name, chunk):
    """A body of up to READ_SIZE bytes takes the stream's own path; a
    longer one is received into its own buffer, so no body byte past
    the first READ_SIZE passes through the stream's copy."""
    body = BODIES[name]

    async def run():
        conn = _Connection()
        frame, payload = _frame(body)
        reading = asyncio.ensure_future(read_frame(conn.reader))
        await asyncio.sleep(0)
        await conn.feed(frame, chunk)
        header, got = await reading
        assert header == HEADER and got == payload and got.readonly
        if body <= READ_SIZE:
            assert conn.fed == len(frame)
        else:
            assert conn.fed <= PREAMBLE + READ_SIZE
        assert conn.protocol.get_buffer(-1) is conn.buffer  # back between frames

    asyncio.run(run())


def test_a_short_read_is_the_streams_own_coroutine():
    """No await layer is added to a read of up to READ_SIZE bytes."""

    async def run():
        coro = _Connection().reader.readexactly(READ_SIZE)
        try:
            assert coro.cr_code is asyncio.StreamReader.readexactly.__code__
        finally:
            coro.close()

    asyncio.run(run())


def test_eof_mid_payload_is_an_incomplete_read():
    """A peer that hangs up mid-frame surfaces as the same exception as
    on the stream's own path: the client counts a connection error,
    the node drops the peer."""

    async def run():
        conn = _Connection()
        frame, _ = _frame(4 << 20)
        reading = asyncio.ensure_future(read_frame(conn.reader))
        await asyncio.sleep(0)
        await conn.feed(frame[: 1 << 20], 65536)
        conn.protocol.eof_received()
        with pytest.raises(asyncio.IncompleteReadError) as info:
            await reading
        assert len(info.value.partial) == (1 << 20) - PREAMBLE
        assert info.value.expected == len(frame) - PREAMBLE

    asyncio.run(run())


def test_a_cancelled_long_read_leaves_no_buffer_pending():
    """A timed-out attempt cancels its read mid-payload; the reader then
    offers the socket the transport's buffer again, not the abandoned
    one."""

    async def run():
        conn = _Connection()
        frame, _ = _frame(4 << 20)
        reading = asyncio.ensure_future(read_frame(conn.reader))
        await asyncio.sleep(0)
        await conn.feed(frame[: 1 << 20], 65536)
        assert len(conn.protocol.get_buffer(-1)) == len(frame) - (1 << 20)
        reading.cancel()
        with pytest.raises(asyncio.CancelledError):
            await reading
        assert conn.reader._direct is None
        assert conn.protocol.get_buffer(-1) is conn.buffer

    asyncio.run(run())


def _rss() -> int:
    """This process's resident memory in bytes."""
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads /proc")
@pytest.mark.skipif(
    sys.flags.dev_mode or "debug" in os.environ.get("PYTHONMALLOC", ""),
    reason="the debug allocator fills new memory, which commits it",
)
def test_a_stalled_long_frame_commits_only_the_bytes_that_arrived():
    """A peer that announces a 64 MiB frame, sends 1 MiB of it and
    stalls makes the reader commit about what it sent, not 64 MiB."""

    async def run():
        conn = _Connection()
        reading = asyncio.ensure_future(read_frame(conn.reader))
        await asyncio.sleep(0)
        head = struct.pack("!4sII", MAGIC, 2, 64 << 20) + b"{}" + bytes(1 << 20)
        before = _rss()
        await conn.feed(head, 65536)
        grown = _rss() - before
        reading.cancel()
        with pytest.raises(asyncio.CancelledError):
            await reading
        return grown

    assert asyncio.run(run()) < 16 << 20


@pytest.mark.slow
def test_asyncio_connections_sharing_one_read_buffer_keep_their_bytes():
    """Both ends of several concurrent connections read into one
    transport's buffer; payloads span several reads each."""

    async def run():
        transport = AsyncioTransport()
        size = 3 * READ_SIZE + 17

        async def reverse(reader, writer):
            data = await reader.readexactly(size)
            writer.write(data[::-1])
            await writer.drain()
            writer.close()

        listener = await transport.serve(reverse, "127.0.0.1", 0)

        async def exchange(seed: int) -> bool:
            payload = np.random.default_rng(seed).bytes(size)
            reader, writer = await transport.connect(listener.address)
            writer.write(payload)
            await writer.drain()
            back = await reader.readexactly(size)
            writer.close()
            return back == payload[::-1]

        results = await asyncio.wait_for(
            asyncio.gather(*(exchange(seed) for seed in range(4))), timeout=30
        )
        listener.close()
        await listener.wait_closed()
        return results

    assert asyncio.run(run()) == [True] * 4
