"""Length-prefixed, checksummed wire protocol for the stripe store.

Every message -- request or reply -- is one *frame*:

::

    +-------+------------+-------------+--------------+-----------+--------+
    | magic | header len | payload len | header JSON  | payload   | CRC-32 |
    | 4 B   | u32 BE     | u32 BE      | header len B | p. len B  | u32 BE |
    +-------+------------+-------------+--------------+-----------+--------+

The header is a small JSON object (``{"verb": "get", "stripes": [3, 4]}``);
the payload carries raw strip bytes.

Each side copies a strip once.  A sender hands :func:`frame_parts` its
payload as one buffer or as a list of them -- a put's strips as views
of the stripe buffers, a ``get`` reply's as read-only views of the
disk's storage, one part per run of consecutive stripes the request
names -- and joining the parts into the one ``bytes`` a frame is
written as is the payload's only copy.  :func:`read_frame` reads a
frame in two reads, the 12-byte preamble and then header, payload and
CRC together, and returns the payload as a read-only view of that one
buffer.  :class:`~repro.sim.transport.AsyncioTransport` receives a
read that long straight into the buffer it returns, so the kernel's
copy is the receiver's only one.

Every payload byte is covered by a CRC-32 that its receiver checks, so
a flipped bit surfaces as an error rather than as silently corrupted
strip data -- the network analogue of the scrubber's checksum
discipline:

* A frame whose header lists ``crcs`` (a ``put`` request, a ``get``
  reply) carries strips, one CRC-32 per strip in payload order; its
  trailing CRC-32 covers the header alone.  The receiver checks each
  strip where it lands -- the node against the CRC it keeps as the
  strip's sidecar, the client against the sidecar the node sent -- so
  a strip is hashed once on its way, and a mismatch costs that strip,
  not the frame.  A node answers any other request that lists
  ``crcs`` with ``bad-request``, since nothing would check its payload.
* The CRCs a ``put`` lists come from the user's bytes where it can:
  the client hashes a write in strip-aligned pieces, and a strip one
  piece fills lists that piece's CRC, so the node's check also catches
  a piece the client's layout misplaced.  An encoded P, where the code
  makes it the row parity, lists the XOR of its data strips' CRCs
  (:func:`~repro.utils.crc.crc32_xor`), which the node's check holds
  the encoder to.  The client keeps the CRC each ``get`` strip was
  checked with and folds the CRC of the bytes it returns from them
  (:func:`~repro.utils.crc.crc32_combine`).
* Any other frame's trailing CRC-32 covers header and payload, and
  :func:`read_frame` raises :class:`FrameChecksumError` on a mismatch.

Verbs understood by :class:`~repro.cluster.node.StripNode`:

==============  ======================================================
``ping``        liveness probe
``put``         store the payload as strips ``stripes``, one strip after
                another (a lone ``stripe`` is the one-strip case).  Each
                strip is checked against its CRC in ``crcs`` and keeps
                it as its sidecar; a mismatch fails the request whole
                (``bad-crc``, retried like any transient error)
``get``         return strips ``stripes`` (or a lone ``stripe``) as the
                reply payload, in request order, with each strip's
                stored sidecar in ``crcs``; the reply's ``unreadable``
                lists the strips the disk could not read (latent
                sectors), which the payload and ``crcs`` leave out --
                only when no strip is readable is the reply an error
``xor``         XOR the payload into rows of strips ``stripes``: per
                strip, the ``rows`` of ``row_bytes`` bytes listed, strip
                after strip.  Each strip keeps the write ``token`` of
                its last delta (a retry is answered, not re-applied),
                fails the request like a latent sector if it no longer
                matches its CRC sidecar, and refreshes the sidecar: the
                parity half of a delta write
``scrub-read``  compare strips ``stripes`` (or a lone ``stripe``) to
                their CRC sidecars without shipping them: per readable
                strip, in request order, its sidecar in ``crc_stored``
                and whether its contents match it in ``match``;
                ``unreadable`` lists latent strips, as ``get`` does
``release``     zero a migrated-away strip and drop its sidecar,
                fenced by the ``crc`` its probe last reported (a
                migrated strip itself lands by ``put``)
``membership``  get/set/mutate the hosted membership snapshot
                (join / drain / remove / mark_live / mark_dead)
``stats``       return the node's metrics snapshot in the reply header
``metrics``     Prometheus text exposition of the node's registry
``fault``       install a :class:`~repro.array.faults.NetworkFaultPlan`
                and/or trigger disk faults (fail / latent / replace)
``shutdown``    stop serving after acknowledging
==============  ======================================================

Replies carry ``{"status": "ok"}`` or ``{"status": "err", "error":
<kind>, "detail": <str>}``.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any

import asyncio

from repro.analysis.concurrency import sanitizer

__all__ = [
    "MAGIC",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "FrameChecksumError",
    "frame_parts",
    "encode_frame",
    "read_frame",
    "strip_crcs",
    "write_frame",
]

#: Anything the zero-copy payload path accepts (numpy's ``arr.data``
#: memoryview included -- multi-dimensional views are flattened).
Buffer = bytes | bytearray | memoryview

#: A frame's payload: one buffer, or a list or tuple of them sent one
#: after another (a batch's strips, each a view of where it lives).
Payload = Buffer | list | tuple

#: Frame preamble; reject anything else immediately (protects the node
#: from port scanners and stale peers speaking an older framing).
MAGIC = b"RPR1"

#: Upper bound on a frame's header and, separately, on its payload:
#: far above any legal batch of strips.
MAX_FRAME_BYTES = 1 << 26

_PREAMBLE = struct.Struct("!4sII")
_CRC = struct.Struct("!I")


class ProtocolError(Exception):
    """Malformed frame (bad magic, oversized lengths, bad JSON)."""


class FrameChecksumError(ProtocolError):
    """Frame arrived intact in length but failed its CRC-32."""


def frame_parts(header: dict[str, Any], payload: Payload = b"") -> tuple:
    """One frame as its buffers, flat: ``(preamble, header, *payload,
    crc)``.

    ``payload`` is one buffer, or a list or tuple of buffers sent one
    after another.  Each is passed through untouched, as a flat byte
    view (a ``memoryview`` over a strip of a stripe buffer, or of the
    disk's storage, is not staged through ``bytes``), and the CRC is
    computed directly over them -- or not at all when the header lists
    the payload's strip CRCs (``crcs``).  Joining the parts into the
    one ``bytes`` a frame is sent as (:func:`encode_frame`) is the
    payload's only copy.
    """
    bufs = payload if isinstance(payload, (list, tuple)) else (payload,)
    # Flatten e.g. numpy's (rows, words) strip views; cast requires
    # C-contiguity, which is also what the CRC and socket need.
    parts = [
        buf if isinstance(buf, (bytes, bytearray)) else memoryview(buf).cast("B")
        for buf in bufs
    ]
    hdr = json.dumps(header, separators=(",", ":")).encode()
    size = sum(map(len, parts))
    if len(hdr) > MAX_FRAME_BYTES or size > MAX_FRAME_BYTES:
        raise ProtocolError("frame exceeds MAX_FRAME_BYTES")
    crc = zlib.crc32(hdr)
    # A payload of strips is covered strip by strip by the header's crcs.
    if "crcs" not in header:
        for part in parts:
            crc = zlib.crc32(part, crc)
    return (_PREAMBLE.pack(MAGIC, len(hdr), size), hdr, *parts, _CRC.pack(crc))


def encode_frame(header: dict[str, Any], payload: Payload = b"") -> bytes:
    """Serialise one frame to a single ``bytes``."""
    return b"".join(frame_parts(header, payload))


async def read_frame(reader: asyncio.StreamReader) -> tuple[dict[str, Any], memoryview]:
    """Read and validate one frame; returns ``(header, payload)``.

    Two reads: the preamble, then header, payload and CRC as one
    buffer, of which the payload is a read-only view (a caller that
    keeps it past the next frame keeps that buffer alive, never a
    shared one).  Raises :class:`FrameChecksumError` on CRC mismatch,
    :class:`ProtocolError` on structural garbage, and lets
    ``IncompleteReadError`` (connection dropped mid-frame) propagate so
    callers can treat it as a transport failure.  A payload whose
    header lists ``crcs`` is returned unchecked: its strips are the
    caller's to check, one by one.
    """
    magic, hlen, plen = _PREAMBLE.unpack(await reader.readexactly(_PREAMBLE.size))
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if hlen > MAX_FRAME_BYTES or plen > MAX_FRAME_BYTES:
        raise ProtocolError(f"oversized frame (header={hlen}, payload={plen})")
    body = await reader.readexactly(hlen + plen + _CRC.size)
    hdr_bytes = body[:hlen]
    payload = memoryview(body)[hlen : hlen + plen].toreadonly()
    (crc,) = _CRC.unpack_from(body, hlen + plen)
    # The header says what the CRC covers, so it is parsed first; the
    # CRC covers the header bytes either way, so a damaged header
    # still fails the check below before any parse error is reported.
    try:
        header = json.loads(hdr_bytes)
    except ValueError as exc:
        header = exc
    strips = isinstance(header, dict) and "crcs" in header
    if crc != zlib.crc32(b"" if strips else payload, zlib.crc32(hdr_bytes)):
        raise FrameChecksumError("frame CRC-32 mismatch")
    if isinstance(header, ValueError):
        raise ProtocolError(f"unparseable frame header: {header}") from None
    if not isinstance(header, dict):
        raise ProtocolError("frame header is not a JSON object")
    return header, payload


def strip_crcs(strips) -> list[int]:
    """The CRC-32 of each buffer of ``strips``: a frame's ``crcs``."""
    return [zlib.crc32(strip) for strip in strips]


async def write_frame(
    writer: asyncio.StreamWriter, header: dict[str, Any], payload: Payload = b""
) -> None:
    """Encode and flush one frame, as one ``bytes`` in one ``write``.

    Joining the frame parts costs one copy of the payload and saves a
    ``send`` syscall per part.  The transport then holds only that
    ``bytes``, never a view of the caller's buffers, so callers may
    reuse or mutate the payload as soon as the coroutine completes
    (``drain()`` is awaited here).  Under ``REPRO_ALIAS_SANITIZER=1``
    each writable buffer of the payload is fingerprinted at handoff and
    re-verified after the drain: a concurrent writer racing the framing
    is recorded as a write-after-handoff event.
    """
    token = sanitizer.guard(payload, "protocol.write_frame")
    writer.write(encode_frame(header, payload))
    await writer.drain()
    sanitizer.check(token)
