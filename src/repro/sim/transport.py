"""Injectable byte transport: real asyncio sockets or in-memory pipes.

:class:`~repro.cluster.node.StripNode` and
:class:`~repro.cluster.client.NodeClient` speak to each other through a
:class:`Transport`: ``serve()`` binds a listener and ``connect()``
yields a ``(StreamReader, writer)`` pair.  :class:`AsyncioTransport`
is the production default: ``asyncio.start_server`` /
``asyncio.open_connection``, with a short read landing in one small
buffer the transport owns instead of a fresh bytes object per read,
and a long one (a frame of strips) received straight into the buffer
it returns.

:class:`MemoryTransport` replaces the network with deterministic
in-process pipes: a listener is an entry in a dict, a connection is a
pair of :class:`asyncio.StreamReader` buffers cross-wired through
:class:`MemoryStreamWriter`.  Connecting to an address nobody serves
raises :class:`ConnectionRefusedError` and closing either end feeds EOF
to both readers -- exactly the failure surface the cluster's retry and
degraded-read machinery is written against, minus the kernel's timing
noise.  Combined with :class:`~repro.sim.clock.VirtualClock` this makes
whole cluster scenarios replay bit-identically.
"""

from __future__ import annotations

import asyncio
import ctypes
from typing import Awaitable, Callable

__all__ = [
    "Transport",
    "AsyncioTransport",
    "MemoryTransport",
    "MemoryStreamWriter",
]

#: Signature of a connection handler (what ``asyncio.start_server`` takes).
ConnectionHandler = Callable[[asyncio.StreamReader, "object"], Awaitable[None]]


class Transport:
    """Interface shared by the real and in-memory transports."""

    async def serve(self, handler: ConnectionHandler, host: str, port: int):
        """Bind a listener; returns an object with ``address`` /
        ``close()`` / ``wait_closed()``."""
        raise NotImplementedError

    async def connect(self, address: tuple[str, int]):
        """Open a client connection; returns ``(reader, writer)``."""
        raise NotImplementedError


# -- production: real sockets ------------------------------------------------


class _AsyncioListener:
    """Adapter giving ``asyncio.AbstractServer`` the seam's listener API."""

    def __init__(self, server: asyncio.AbstractServer) -> None:
        self._server = server

    @property
    def address(self) -> tuple[str, int]:
        return self._server.sockets[0].getsockname()[:2]

    def close(self) -> None:
        self._server.close()

    async def wait_closed(self) -> None:
        await self._server.wait_closed()


#: Bytes one socket read may fill while no long read waits: every frame
#: of a small RPC, and the head of a frame of strips.  A read of more
#: bytes is received straight into the buffer it returns.
READ_SIZE = 16 * 1024

# ``bytearray(n)`` zero-fills, which commits all ``n`` bytes at once; a
# peer that announced a 64 MiB frame and stalled would pin 64 MiB.  The
# C constructor given no source leaves the bytes as allocated, so a
# large buffer's pages are committed only as the socket fills them.
_new_bytearray = ctypes.pythonapi.PyByteArray_FromStringAndSize
_new_bytearray.argtypes = (ctypes.c_char_p, ctypes.c_ssize_t)
_new_bytearray.restype = ctypes.py_object


class _FrameReader(asyncio.StreamReader):
    """A stream reader that receives a long read into its own buffer.

    A read of at most :data:`READ_SIZE` bytes is the stream's own
    ``readexactly``, unchanged.  A longer one -- a frame of strips --
    gets a buffer of its own: the bytes the stream already holds are
    moved into it, and :class:`_StreamProtocol` hands the socket the
    rest of it to fill, so every later byte is copied once, by the
    kernel.  The returned ``bytearray`` is the caller's; nothing here
    keeps it once the read ends, completed, failed or cancelled.
    """

    def __init__(self, loop) -> None:
        super().__init__(loop=loop)
        #: the buffer a long read is being received into, and how many
        #: of its bytes have arrived
        self._direct: bytearray | None = None
        self._filled = 0

    def readexactly(self, n: int):
        # Not a coroutine itself: a short read awaits the stream's own
        # coroutine, with no layer in between.
        if n <= READ_SIZE:
            return super().readexactly(n)
        return self._receive(n)

    async def _receive(self, n: int) -> bytearray:
        if self._exception is not None:
            raise self._exception
        out = _new_bytearray(None, n)
        have = min(n, len(self._buffer))
        with memoryview(self._buffer) as held:
            out[:have] = held[:have]
        del self._buffer[:have]
        self._maybe_resume_transport()
        self._direct, self._filled = out, have
        try:
            while self._filled < n:
                if self._eof:
                    raise asyncio.IncompleteReadError(bytes(out[: self._filled]), n)
                await self._wait_for_data("readexactly")
        finally:
            self._direct = None
        return out

    def _pending(self) -> bool:
        """Whether a long read still waits for bytes."""
        return self._direct is not None and self._filled < len(self._direct)

    def _received(self, nbytes: int) -> None:
        """``nbytes`` more of the pending long read have arrived."""
        self._filled += nbytes
        if self._filled == len(self._direct):
            self._wakeup_waiter()


class _StreamProtocol(asyncio.StreamReaderProtocol, asyncio.BufferedProtocol):
    """asyncio's stream protocol, reading into a buffer it is handed.

    A plain stream read allocates a fresh 256 KiB bytes object per
    read.  That is above glibc's mmap threshold, so depending on the
    heap's layout every read of a small reply can cost an mmap and a
    munmap: a third more set-up time on a small-RPC workload, in some
    checkouts and not others.  Reading into a buffer allocates nothing.
    A read runs to completion on the loop, and its bytes are copied
    into the stream before the next read starts, so one buffer serves
    every connection of a transport on that loop.

    The buffer is :data:`READ_SIZE` bytes.  It holds any frame of a
    small RPC, and it bounds how much of a frame of strips lands there,
    to be copied by the stream, before its reader asks for the rest.
    While a :class:`_FrameReader` waits on a long read, the socket is
    handed the unfilled tail of that read's buffer instead.
    """

    def __init__(self, buffer: bytearray, reader, *args, **kwargs) -> None:
        super().__init__(reader, *args, **kwargs)
        self._buffer = buffer

    def get_buffer(self, sizehint: int) -> bytearray | memoryview:
        reader = self._stream_reader
        if reader is None or not reader._pending():
            return self._buffer
        return memoryview(reader._direct)[reader._filled :]

    def buffer_updated(self, nbytes: int) -> None:
        # The transport calls this straight after get_buffer(), so the
        # reader is in the state get_buffer() saw.
        reader = self._stream_reader
        if reader is None or not reader._pending():
            # The stream copies the bytes out before this returns.
            self.data_received(memoryview(self._buffer)[:nbytes])
        else:
            reader._received(nbytes)


class AsyncioTransport(Transport):
    """Real TCP via asyncio (the default everywhere): the bodies of
    :func:`asyncio.start_server` and :func:`asyncio.open_connection`,
    with every connection reading into this transport's buffer -- so
    one transport serves one event loop, as every caller creates it."""

    def __init__(self) -> None:
        self._buffer = bytearray(READ_SIZE)

    async def serve(self, handler: ConnectionHandler, host: str, port: int):
        loop = asyncio.get_running_loop()

        def factory() -> _StreamProtocol:
            reader = _FrameReader(loop)
            return _StreamProtocol(self._buffer, reader, handler, loop=loop)

        return _AsyncioListener(await loop.create_server(factory, host, port))

    async def connect(self, address: tuple[str, int]):
        loop = asyncio.get_running_loop()
        reader = _FrameReader(loop)
        protocol = _StreamProtocol(self._buffer, reader, loop=loop)
        transport, _ = await loop.create_connection(lambda: protocol, *address)
        return reader, asyncio.StreamWriter(transport, protocol, reader, loop)


# -- simulation: in-memory pipes ---------------------------------------------


class MemoryStreamWriter:
    """Writer half of an in-memory pipe.

    Implements the subset of :class:`asyncio.StreamWriter` the cluster
    uses (``write``/``drain``/``close``/``wait_closed``/``is_closing``).
    Bytes feed straight into the peer's :class:`asyncio.StreamReader`.
    ``close()`` ends the connection as closing a socket does: it feeds
    EOF to both readers, so a peer blocked in ``readexactly`` sees
    :class:`asyncio.IncompleteReadError` just as it would on a dropped
    TCP connection, and so does this end's own pending read.  Bytes
    written towards an end that has closed are dropped.
    """

    def __init__(self, peer_reader: asyncio.StreamReader) -> None:
        self._peer = peer_reader
        self._closed = False
        #: the other end's writer, which feeds this end's reader (linked
        #: by :meth:`MemoryTransport.connect`)
        self.remote: MemoryStreamWriter | None = None

    def write(self, data: bytes) -> None:
        if self._closed:
            raise ConnectionResetError("memory pipe is closed")
        if data and not (self.remote is not None and self.remote._closed):
            self._peer.feed_data(bytes(data))

    async def drain(self) -> None:
        if self._closed:
            raise ConnectionResetError("memory pipe is closed")
        # Yield once, like a real drain, so writers never starve readers.
        await asyncio.sleep(0)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._peer.feed_eof()
            if self.remote is not None:
                self.remote._peer.feed_eof()  # this end's own reader

    def is_closing(self) -> bool:
        return self._closed

    async def wait_closed(self) -> None:
        return None


class _MemoryListener:
    def __init__(self, transport: "MemoryTransport", key: tuple[str, int]) -> None:
        self._transport = transport
        self._key = key

    @property
    def address(self) -> tuple[str, int]:
        return self._key

    def close(self) -> None:
        self._transport._listeners.pop(self._key, None)

    async def wait_closed(self) -> None:
        return None


class MemoryTransport(Transport):
    """A private in-process 'network' of handler registrations.

    Each instance is an isolated namespace: nodes and clients must share
    the same ``MemoryTransport`` to see each other, which is what keeps
    concurrently running simulations from cross-talking.
    """

    #: Where ephemeral 'ports' start; real OSes use the same range.
    EPHEMERAL_BASE = 49152

    def __init__(self) -> None:
        self._listeners: dict[tuple[str, int], ConnectionHandler] = {}
        self._next_port = self.EPHEMERAL_BASE
        self._conn_tasks: set[asyncio.Task] = set()

    async def serve(self, handler: ConnectionHandler, host: str, port: int):
        if port == 0:
            port = self._next_port
            self._next_port += 1
        key = (str(host), int(port))
        if key in self._listeners:
            raise OSError(f"memory transport: address {key} already in use")
        self._listeners[key] = handler
        return _MemoryListener(self, key)

    async def connect(self, address: tuple[str, int]):
        key = (str(address[0]), int(address[1]))
        handler = self._listeners.get(key)
        if handler is None:
            raise ConnectionRefusedError(
                f"memory transport: nothing listening on {key}"
            )
        client_reader = asyncio.StreamReader()
        server_reader = asyncio.StreamReader()
        client_writer = MemoryStreamWriter(server_reader)
        server_writer = MemoryStreamWriter(client_reader)
        client_writer.remote, server_writer.remote = server_writer, client_writer
        task = asyncio.get_running_loop().create_task(
            handler(server_reader, server_writer)
        )
        # Keep a strong reference so handlers are never GC-cancelled.
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)
        return client_reader, client_writer
