"""MemoryTransport semantics: the failure surface must look exactly
like real sockets (refused connections, EOF on close) minus the kernel
timing noise.  The one real-socket test checks that AsyncioTransport's
connections, which all read into one buffer, keep their bytes apart."""

import asyncio

import numpy as np
import pytest

from repro.sim import MemoryTransport
from repro.sim.transport import READ_SIZE, AsyncioTransport


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
