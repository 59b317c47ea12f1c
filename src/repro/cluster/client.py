"""Cluster client: per-node RPC with retries, and the striped array.

:class:`NodeClient` is the transport layer -- a small pool of open
connections to its node (an attempt reuses an idle one and hands it
back after a clean reply), a per-request timeout, bounded retries with
exponential backoff (plus optional seeded jitter), and a metrics trail
of every connect, timeout, checksum failure and reconnect.  All timing
-- timeouts, backoff sleeps, latency observations -- flows through an
injectable :class:`~repro.sim.clock.Clock` and all byte I/O through an
injectable :class:`~repro.sim.transport.Transport`, so the same code
path runs on real sockets in production and on virtual time +
in-memory pipes under :mod:`repro.sim`, where scenarios replay
bit-identically from a seed.  :class:`ClusterArray` is the data path: it stripes
writes across :class:`~repro.cluster.node.StripNode` servers (column
order over ``k + 2`` nodes, or rendezvous placement over a membership
table; either way the ``k + 2`` strips of a stripe sit on distinct
nodes), serves **degraded reads** by pulling survivor strips and
decoding with the configured code (the paper's Algorithm 4 path for
``liberation-optimal``, plan cached per erasure pattern), writes a
partial stripe as a **delta write** (the touched data strips, and the
parity delta XORed into the touched P and Q rows), and degrades
gracefully while any two columns are unreachable, faulty or stale.

Everything here is asyncio-native; the CLI and examples wrap entry
points in ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import secrets
import zlib
from dataclasses import dataclass

import numpy as np

from repro.cluster import protocol
from repro.cluster.membership import MembershipTable
from repro.cluster.placement import ColumnOrder, PlacementMap
from repro.cluster.protocol import (
    FrameChecksumError,
    Payload,
    ProtocolError,
    read_frame,
    strip_crcs,
    write_frame,
)
from repro.codes.base import RAID6Code, XorScheduleCode
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.parallel import BatchCoder, BatchColumns
from repro.sim.clock import Clock, RealClock
from repro.sim.transport import AsyncioTransport, Transport
from repro.utils.crc import crc32_combine, crc32_xor
from repro.utils.words import WORD_DTYPE, element_words

__all__ = [
    "RetryPolicy",
    "ClusterError",
    "NodeUnavailableError",
    "DeadlineExceededError",
    "RemoteDiskError",
    "ClusterDegradedError",
    "NodeClient",
    "ClusterArray",
    "send_verb",
]

#: Idle connections a :class:`NodeClient` keeps open to its node.  An
#: operation sends one RPC per node, so a node sees as many at once as
#: there are operations in flight (the gateway admits 32); a reply
#: beyond the cap closes its connection.
MAX_IDLE_CONNECTIONS = 16


class ClusterError(Exception):
    """Base class for distributed-array failures."""


class NodeUnavailableError(ClusterError):
    """A node stayed unreachable/faulty through the whole retry budget."""


class DeadlineExceededError(NodeUnavailableError):
    """The request's total deadline expired before an attempt succeeded.

    A subclass of :class:`NodeUnavailableError` on purpose: to the data
    path a column that cannot answer within its latency budget *is*
    unavailable (degraded reads decode around it, circuit breakers
    count it), but callers that care -- admission control deciding
    whether to shed, tests distinguishing a blown deadline from an
    exhausted per-RPC retry budget -- can catch the subclass.
    """


class RemoteDiskError(ClusterError):
    """The node answered, but its disk could not serve the strip."""


class ClusterDegradedError(ClusterError):
    """More columns are lost than the code can reconstruct."""


@dataclass
class RetryPolicy:
    """Per-request robustness knobs.

    ``timeout`` bounds every attempt; transport failures (refused /
    dropped connections, timeouts, frame checksum mismatches) are
    retried up to ``attempts`` times with exponential backoff starting
    at ``backoff`` seconds.  Deterministic node answers -- a latent
    sector error, a failed disk -- are *not* retried: replaying them
    cannot succeed, the erasure code is the retry.

    ``jitter`` spreads each backoff delay uniformly over
    ``[d, d * (1 + jitter)]`` to decorrelate retry storms.  The random
    source is the *caller's* seeded ``random.Random`` (threaded through
    :meth:`delays`), never a module-level global, so retry timing is
    reproducible under simulation.

    ``deadline`` caps the *total* time one request may spend across all
    attempts, backoff sleeps included -- the budget a caller (the
    gateway's admission control) can actually reason about, where
    ``timeout`` alone only bounds each attempt and the worst case grows
    with ``attempts``.  The running attempt's timeout is clipped to the
    remaining budget, a backoff that would outlive the budget is not
    slept, and expiry raises :class:`DeadlineExceededError`.  Timing
    flows through the client's injectable clock, so deadlines work in
    virtual seconds under simulation.  ``None`` (the default) preserves
    the historical per-RPC-only behaviour.
    """

    attempts: int = 3
    timeout: float = 2.0
    backoff: float = 0.02
    multiplier: float = 2.0
    max_backoff: float = 0.5
    jitter: float = 0.0
    deadline: float | None = None

    def delays(self, rng: random.Random | None = None):
        d = self.backoff
        for _ in range(max(0, self.attempts - 1)):
            delay = d
            if self.jitter and rng is not None:
                delay *= 1.0 + self.jitter * rng.random()
            yield min(delay, self.max_backoff)
            d = min(d * self.multiplier, self.max_backoff)


async def send_verb(
    address: tuple[str, int],
    verb: str,
    header: dict | None = None,
    payload: bytes = b"",
    *,
    transport: Transport | None = None,
    timeout: float | None = 5.0,
    clock: Clock | None = None,
) -> tuple[dict, bytes]:
    """One-shot request with no retry (control-plane helper).

    ``timeout`` bounds the whole exchange (connect + request + reply)
    so a hung node cannot stall control-plane callers forever; pass
    ``None`` to wait indefinitely.  The timer runs on ``clock`` so
    simulated callers time out in virtual seconds.  The reply payload
    comes back as ``bytes`` (a ``metrics`` reply's text).
    """
    transport = transport if transport is not None else AsyncioTransport()
    clock = clock if clock is not None else RealClock()

    async def exchange() -> tuple[dict, bytes]:
        reader, writer = await transport.connect(address)
        try:
            await write_frame(writer, {"verb": verb, **(header or {})}, payload)
            reply, data = await read_frame(reader)
            return reply, bytes(data)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    if timeout is None:
        return await exchange()
    return await clock.wait_for(exchange(), timeout)


class NodeClient:
    """Retrying RPC channel to one strip node.

    Connections are kept open between requests: an attempt takes an
    idle connection (or opens one, counted on ``connects``) and puts it
    back after a clean reply, up to :data:`MAX_IDLE_CONNECTIONS`.  A
    timeout, a cancellation, a CRC or framing error, or a dropped peer
    closes the connection instead, since the stream may then hold half
    a frame; and an idle connection the node hung up on is discarded
    when taken, so it never costs a retry.  :meth:`close` releases the
    idle connections of a client that is no longer used.
    """

    def __init__(
        self,
        address: tuple[str, int],
        *,
        policy: RetryPolicy | None = None,
        metrics: MetricsRegistry | None = None,
        transport: Transport | None = None,
        clock: Clock | None = None,
        rng: random.Random | None = None,
        tracer: Tracer | None = None,
        hedge_after: float | None = None,
    ) -> None:
        self.address = (str(address[0]), int(address[1]))
        self.policy = policy or RetryPolicy()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.transport = transport if transport is not None else AsyncioTransport()
        self.clock = clock if clock is not None else RealClock()
        self.rng = rng
        self.tracer = tracer
        #: launch a duplicate request after this many seconds without a
        #: reply and take whichever finishes first (tail-latency hedge);
        #: None disables.  Safe because every verb is idempotent (an
        #: ``xor`` by its write token) -- the retry loop already requires
        #: that.
        self.hedge_after = hedge_after
        #: open connections awaiting the next attempt, most recent last
        self._idle: list[tuple[asyncio.StreamReader, object]] = []
        self._closed = False

    async def _connection(self) -> tuple[asyncio.StreamReader, object]:
        """An idle connection to the node, else a new one."""
        while self._idle:
            reader, writer = self._idle.pop()
            if not (reader.at_eof() or writer.is_closing()):
                return reader, writer
            writer.close()  # the node hung up while it idled
        connection = await self.transport.connect(self.address)
        self.metrics.counter("connects").inc()
        return connection

    async def _attempt(self, header: dict, payload: Payload) -> tuple[dict, memoryview]:
        reader, writer = await self._connection()
        try:
            await write_frame(writer, header, payload)
            reply = await read_frame(reader)
        except BaseException:
            # Timed out, cancelled, garbled or cut off: the stream may
            # hold part of a frame, so the connection is never reused.
            writer.close()
            raise
        if self._closed or len(self._idle) >= MAX_IDLE_CONNECTIONS:
            writer.close()
        else:
            self._idle.append((reader, writer))
        return reply

    def close(self) -> None:
        """Close the idle connections and stop pooling: a reply still
        in flight, or a later request, closes its connection after use."""
        self._closed = True
        idle, self._idle = self._idle, []
        for _, writer in idle:
            writer.close()

    async def request(
        self, verb: str, header: dict | None = None, payload: Payload = b""
    ) -> tuple[dict, memoryview]:
        """Issue one verb; returns ``(reply_header, reply_payload)``.

        ``payload`` is one buffer or a list of them (a batch's strips),
        joined into the frame (:func:`~repro.cluster.protocol.frame_parts`);
        the reply's payload is a read-only view of the frame it came in.
        Raises :class:`RemoteDiskError` for ``latent`` / ``disk-failed``
        answers and :class:`NodeUnavailableError` once the retry budget
        is exhausted by transport-level failures.
        """
        issue = (
            self._request_with_retries if self.hedge_after is None else self._hedged
        )
        if self.tracer is None:
            return await issue(verb, header, payload)
        with self.tracer.span(f"rpc.{verb}", bytes_out=_nbytes(payload)) as span:
            try:
                reply, data = await issue(verb, header, payload)
            except ClusterError as exc:
                span.set("outcome", type(exc).__name__)
                raise
            span.set("outcome", "ok")
            span.set("bytes_in", len(data))
            return reply, data

    async def _hedged(
        self, verb: str, header: dict | None, payload: Payload
    ) -> tuple[dict, memoryview]:
        """Issue the request; past ``hedge_after`` seconds, race a twin.

        The winner is the first attempt to *succeed*; a lone failure
        waits for its sibling, and only when both fail does the first
        error propagate.  Losers are cancelled (their connection drops,
        which the node handles like any peer departure).
        """
        first = asyncio.ensure_future(
            self._request_with_retries(verb, header, payload)
        )
        timer = asyncio.ensure_future(self.clock.sleep(self.hedge_after))
        try:
            await asyncio.wait({first, timer}, return_when=asyncio.FIRST_COMPLETED)
        finally:
            timer.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await timer
        if first.done():
            return first.result()  # fast path: no hedge needed
        self.metrics.counter("hedged_requests").inc()
        second = asyncio.ensure_future(
            self._request_with_retries(verb, header, payload)
        )
        attempts = (first, second)  # fixed preference order: deterministic
        first_error: BaseException | None = None
        while True:
            pending = [t for t in attempts if not t.done()]
            if not pending:
                break
            await asyncio.wait(pending, return_when=asyncio.FIRST_COMPLETED)
            for task in attempts:
                if task.done() and task.exception() is None:
                    for loser in attempts:
                        if not loser.done():
                            loser.cancel()
                            with contextlib.suppress(BaseException):
                                await loser
                    if task is second:
                        self.metrics.counter("hedge_wins").inc()
                    return task.result()
        for task in attempts:
            if task.exception() is not None:
                first_error = task.exception()
                break
        assert first_error is not None
        raise first_error

    async def _request_with_retries(
        self, verb: str, header: dict | None, payload: Payload
    ) -> tuple[dict, memoryview]:
        full_header = {"verb": verb, **(header or {})}
        policy = self.policy
        delays = policy.delays(self.rng)
        clock = self.clock
        start = clock.time()

        def remaining() -> float | None:
            if policy.deadline is None:
                return None
            return policy.deadline - (clock.time() - start)

        def expired(budget: float | None) -> bool:
            return budget is not None and budget <= 0

        self.metrics.counter("requests").inc()
        for attempt in range(policy.attempts):
            budget = remaining()
            if expired(budget):
                self.metrics.counter("deadline_exceeded").inc()
                self.metrics.counter(f"deadline_exceeded_{verb}").inc()
                raise DeadlineExceededError(
                    f"node {self.address}: deadline {policy.deadline}s exhausted "
                    f"after {attempt} attempt(s)"
                )
            attempt_timeout = (
                policy.timeout if budget is None else min(policy.timeout, budget)
            )
            t0 = clock.time()
            try:
                reply, data = await clock.wait_for(
                    self._attempt(full_header, payload), attempt_timeout
                )
            except (asyncio.TimeoutError, TimeoutError):
                self.metrics.counter("timeouts").inc()
            except FrameChecksumError:
                self.metrics.counter("frame_errors").inc()
            except ProtocolError:
                self.metrics.counter("frame_errors").inc()
            except (ConnectionError, EOFError, OSError):
                self.metrics.counter("connection_errors").inc()
            else:
                self.metrics.histogram("request_latency_s").observe(clock.time() - t0)
                if reply.get("status") == "ok":
                    return reply, data
                error = reply.get("error", "unknown")
                if error in ("latent", "disk-failed"):
                    raise RemoteDiskError(
                        f"{self.address}: {error}: {reply.get('detail', '')}"
                    )
                # Transient server-side conditions (injected io-error,
                # overload): spend a retry on them.
                self.metrics.counter("remote_errors").inc()
            if attempt < policy.attempts - 1:
                delay = next(delays)
                budget = remaining()
                if budget is not None and delay >= budget:
                    # Sleeping would burn the whole budget with no
                    # attempt left to spend it on: fail now, honestly.
                    self.metrics.counter("deadline_exceeded").inc()
                    self.metrics.counter(f"deadline_exceeded_{verb}").inc()
                    raise DeadlineExceededError(
                        f"node {self.address}: backoff of {delay:.3f}s exceeds "
                        f"remaining deadline budget {max(budget, 0.0):.3f}s"
                    )
                self.metrics.counter("retries").inc()
                await clock.sleep(delay)
        # The whole retry budget burned on transport failures: surface
        # it distinctly from per-attempt counters so dashboards can
        # alert on *requests that failed*, per verb, not just noise.
        self.metrics.counter("retries_exhausted").inc()
        self.metrics.counter(f"retries_exhausted_{verb}").inc()
        raise NodeUnavailableError(
            f"node {self.address} unreachable after {policy.attempts} attempts"
        )


@contextlib.asynccontextmanager
async def acquire_all(locks):
    """Hold every lock of ``locks``, acquired in the order given."""
    async with contextlib.AsyncExitStack() as held:
        for lock in locks:
            await held.enter_async_context(lock)
        yield


def cached_client(cache: dict, key, address: tuple[str, int], make) -> NodeClient:
    """``cache[key]`` while it still dials ``address``; otherwise
    ``make(address)`` takes its place and the stale client is closed."""
    client = cache.get(key)
    if client is None or client.address != (str(address[0]), int(address[1])):
        if client is not None:
            client.close()
        client = cache[key] = make(address)
    return client


def _by_column(columns: dict[int, list[int]]) -> list[tuple[int, list[int]]]:
    """A fan-out plan from each stripe's columns: ``(column, stripes)``
    per column, stripes in ascending order."""
    plan: dict[int, list[int]] = {}
    for stripe in sorted(columns):
        for col in columns[stripe]:
            plan.setdefault(col, []).append(stripe)
    return sorted(plan.items())


def _nbytes(payload: Payload) -> int:
    """The bytes of a payload given as one buffer or a list of them."""
    bufs = payload if isinstance(payload, (list, tuple)) else (payload,)
    return sum(memoryview(buf).nbytes for buf in bufs)


def _touched(pieces: list[tuple[int, memoryview]], unit: int) -> list[int]:
    """The ``unit``-byte blocks of a stripe payload -- its strips, or
    its elements -- that the ``(within, chunk)`` pieces write, in order."""
    return sorted({
        block
        for within, chunk in pieces
        for block in range(within // unit, (within + len(chunk) - 1) // unit + 1)
    })


def _strips_of(
    bufs: dict[int, np.ndarray], crcs: dict[tuple[int, int], int] | None = None
):
    """The ``payload_for`` and ``header_for`` of a ``put`` of strips of
    the stripe buffers ``bufs``: the payload is the batch's strips as
    views of their stripe buffers, which the frame joins, and the header
    lists each strip's CRC-32 -- ``crcs[stripe, column]`` where given,
    else the hash of the strip as built."""

    def strips(col: int, batch: list[int]) -> list[np.ndarray]:
        return [bufs[s][col] for s in batch]

    def listed(col: int, batch: list[int]) -> dict:
        if crcs is None:
            return {"crcs": strip_crcs(bufs[s][col] for s in batch)}
        return {"crcs": [crcs[s, col] for s in batch]}

    return strips, listed


def _strip_parts(pos: int, end: int, stripe_bytes: int, strip_bytes: int):
    """The array bytes ``[pos, end)`` cut at strip boundaries, as
    ``(stripe, column, within, length)`` per part, ``within`` its offset
    in its stripe's payload."""
    while pos < end:
        stripe, within = divmod(pos, stripe_bytes)
        take = min(end - pos, strip_bytes - within % strip_bytes)
        yield stripe, within // strip_bytes, within, take
        pos += take


def _landed(done) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """Each stripe's columns that a fan-out's ``done`` batches landed,
    and each stripe's columns they lost."""
    landed: dict[int, list[int]] = {}
    lost: dict[int, list[int]] = {}
    for col, batch, outcome in done:
        into = lost if isinstance(outcome, ClusterError) else landed
        for stripe in batch:
            into.setdefault(stripe, []).append(col)
    return landed, lost


class LandedStrips(dict):
    """A stripe's strips by column, as a fetch lands them
    (:meth:`ClusterArray._land`): each a read-only byte view of its reply
    frame, ``[rows, element_size]``, and each decoded strip beside them.

    :attr:`frames` says where each landed strip sits: its reply frame,
    as the byte array ``[strips, rows, element_size]`` of that frame's
    strips, and its row there.  So stripes whose strips of a column are
    consecutive rows of one frame can take that column as one view
    (:meth:`ClusterArray._decode_landed`).
    """

    __slots__ = ("frames",)

    def __init__(self) -> None:
        super().__init__()
        self.frames: dict[int, tuple[np.ndarray, int]] = {}

    def follows(self, prev: LandedStrips, columns) -> bool:
        """Whether each of ``columns`` landed in the frame row right
        after ``prev``'s strip of it."""
        for col in columns:
            at, before = self.frames.get(col), prev.frames.get(col)
            if at is None or before is None or at[0] is not before[0] or at[1] != before[1] + 1:
                return False
        return True

    def frame_rows(self, column: int, n: int) -> np.ndarray:
        """``column``'s strip and the ``n - 1`` after it in its frame, as
        the batch column ``[rows, n, element_size]`` (a view)."""
        frame, row = self.frames[column]
        return frame[row : row + n].transpose(1, 0, 2)

    def copy_to(self, buf: np.ndarray) -> np.ndarray:
        """Copy each strip into its column of the stripe buffer ``buf``; returns it."""
        for col, strip in self.items():
            buf[col].view(np.uint8)[:] = strip
        return buf


class ClusterArray:
    """A RAID-6 array whose strips live on network nodes.

    The mirror image of :class:`repro.array.raid6.RAID6Array` with the
    disk accesses replaced by concurrent RPCs, one per column and node
    for all the stripes an operation touches.  Reads always succeed
    while at most two columns are lost (in any mix of stopped nodes,
    network faults, disk errors and strips a degraded write left
    stale); writes skip unreachable columns the way a degraded array
    skips failed disks, leaving the stripe recoverable through the
    parity that *was* written.

    ``nodes`` says where the strips live:

    * ``k + 2`` addresses give a static
      :class:`~repro.cluster.membership.MembershipTable` whose node ids
      are the column numbers, placed by
      :class:`~repro.cluster.placement.ColumnOrder`: column *c* of every
      stripe on node *c*.
    * A :class:`~repro.cluster.membership.MembershipTable` places every
      stripe by rendezvous hashing over its LIVE nodes
      (:class:`~repro.cluster.placement.PlacementMap`).

    Nothing past the constructor tells the two apart.  Every
    ``(stripe, column)`` routes through :meth:`holders` to a node id,
    and from there to that node's client and circuit breaker.

    * :attr:`locations` is the authoritative holder map.  A stripe is
      pinned to its placement on first touch; afterwards only a
      rebalancer flip moves it, so routing never follows placement to a
      node that holds nothing yet.
    * **Epoch-bump retry**: an RPC that fails with
      :class:`NodeUnavailableError` after the membership epoch moved
      re-resolves its holders and spends one retry (``epoch_retries``),
      so a request racing a migration, a drain or a repointed node sees
      one slow answer, not an error.
    * **Stripe locks** (:meth:`stripe_lock`) serialize everything that
      reads a stripe and then writes it -- read-modify-write, scrub
      repairs, rebuild windows, migrations -- against every write of
      that stripe.  A batch takes its stripes' locks in ascending order.
      Plain reads take no lock; they only wait out a stripe's migration
      (:attr:`migrating`).
    """

    def __init__(
        self,
        code: RAID6Code,
        nodes: list[tuple[str, int]] | MembershipTable,
        n_stripes: int,
        *,
        policy: RetryPolicy | None = None,
        transport: Transport | None = None,
        clock: Clock | None = None,
        rng: random.Random | None = None,
        tracer: Tracer | None = None,
        hedge_after: float | None = None,
    ) -> None:
        if n_stripes <= 0:
            raise ValueError("n_stripes must be positive")
        self.code = code
        #: decodes a read's runs of stripes as one batch (:meth:`_decode_landed`)
        self._coder = BatchCoder(code)
        self.n_stripes = int(n_stripes)
        self.policy = policy or RetryPolicy()
        self.metrics = MetricsRegistry()
        self.transport = transport if transport is not None else AsyncioTransport()
        self.clock = clock if clock is not None else RealClock()
        self.rng = rng
        self.tracer = tracer
        self.hedge_after = hedge_after
        if isinstance(nodes, MembershipTable):
            self.membership = nodes
            self.placement = PlacementMap(nodes, code.n_cols)
        else:
            if len(nodes) != code.n_cols:
                raise ValueError(
                    f"need {code.n_cols} node addresses (k+2), got {len(nodes)}"
                )
            self.membership = MembershipTable()
            for column, address in enumerate(nodes):
                self.membership.join(column, address, live=True)
            self.placement = ColumnOrder(self.membership, range(code.n_cols))
        if self.membership.metrics is None:
            self.membership.metrics = self.metrics
            self.membership._export()
        #: authoritative current holders (stripe -> node id per column)
        self.locations: dict[int, tuple] = {}
        #: per-node circuit breakers, installed and fed by
        #: :class:`~repro.cluster.health.HealthMonitor`; none = no gating
        self.breakers: dict = {}
        #: stripe -> the columns that hold stale bytes (a write skipped
        #: them, or a fetch found them rotted): erasures to every reader
        #: and the scrubber's priority queue; only :meth:`_mark_columns`
        #: changes it
        self.dirty_stripes: dict[int, set[int]] = {}
        #: stripes with a migration in flight (set by the rebalancer);
        #: readers of such a stripe wait for it to finish, since a read
        #: routed before a flip could reach a source that was released
        #: or took another column of the stripe
        self.migrating: set[int] = set()
        self._clients: dict = {}
        #: stripe -> [lock, holders + waiters]; an entry lives only
        #: while someone holds or awaits its lock
        self._locks: dict[int, list] = {}
        #: delta writes' token source (see :meth:`_write_token`)
        self._nonce: str | None = None
        self._writes = 0

    def _make_client(self, address: tuple[str, int]) -> NodeClient:
        return NodeClient(
            address,
            policy=self.policy,
            metrics=self.metrics,
            transport=self.transport,
            clock=self.clock,
            rng=self.rng,
            tracer=self.tracer,
            hedge_after=self.hedge_after,
        )

    # -- geometry ----------------------------------------------------------

    @property
    def stripe_data_bytes(self) -> int:
        return self.code.data_bytes

    @property
    def capacity(self) -> int:
        """User-addressable bytes."""
        return self.n_stripes * self.stripe_data_bytes

    def _check_stripe(self, stripe: int) -> None:
        if not 0 <= stripe < self.n_stripes:
            raise IndexError(f"stripe {stripe} out of range [0, {self.n_stripes})")

    # -- routing -----------------------------------------------------------

    def holders(self, stripe: int) -> tuple:
        """Node ids holding ``stripe``'s columns, pinned on first touch."""
        locs = self.locations.get(stripe)
        if locs is None:
            locs = self.locations[stripe] = self.placement.nodes_for(stripe)
        return locs

    def _placed(self, stripe: int) -> tuple:
        """:meth:`holders` without pinning: a stripe not yet touched
        answers with its current placement."""
        return self.locations.get(stripe) or self.placement.nodes_for(stripe)

    def column_node(self, column: int):
        """The node holding ``column`` of every stripe, or None when the
        column is spread over several nodes."""
        node_id = self._placed(0)[column]
        for stripe in range(1, self.n_stripes):
            if self._placed(stripe)[column] != node_id:
                return None
        return node_id

    def client_for_node(self, node_id) -> NodeClient:
        """Cached client for one node, rebuilt if its address changed."""
        return cached_client(
            self._clients, node_id, self.membership.address_of(node_id),
            self._make_client,
        )

    def _route(self, node_id) -> tuple:
        return self.client_for_node(node_id), self.breakers.get(node_id)

    def replace_node(self, node_id, node: tuple[str, int] | NodeClient) -> None:
        """Point ``node_id`` at a replacement node (post-rebuild).

        ``node`` is the replacement's address, or an open client to it
        (the rebuild hands over its own, pooled connections and all).
        The replaced client is closed and the table records the new
        address, bumping the epoch.  Any circuit-breaker state belongs
        to the *old* node, so the node's breaker resets -- otherwise a
        freshly rebuilt column would stay short-circuited for the rest
        of the cooldown.
        """
        client = node if isinstance(node, NodeClient) else self._make_client(node)
        self.membership.relocate(node_id, client.address)
        old = self._clients.get(node_id)
        if old is not None and old is not client:
            old.close()
        self._clients[node_id] = client
        breaker = self.breakers.get(node_id)
        if breaker is not None:
            breaker.reset()

    def close(self) -> None:
        """Close the idle connections of every node client."""
        for client in self._clients.values():
            client.close()

    # -- stripe locks ------------------------------------------------------

    @contextlib.asynccontextmanager
    async def stripe_lock(self, stripe: int):
        """Hold the lock every read-then-write of ``stripe`` holds."""
        entry = self._locks.get(stripe)
        if entry is None:
            entry = self._locks[stripe] = [asyncio.Lock(), 0]
        entry[1] += 1
        try:
            async with entry[0]:
                yield
        finally:
            entry[1] -= 1
            if not entry[1]:
                del self._locks[stripe]

    def stripe_locks(self, stripes):
        """The locks of ``stripes``, held together and taken in ascending
        order -- the order of every batch, so two batches sharing
        stripes never deadlock."""
        return acquire_all(self.stripe_lock(s) for s in sorted(set(stripes)))

    # -- strip RPCs --------------------------------------------------------

    async def _node_request(
        self, route: tuple, column: int, verb: str, header: dict | None,
        payload: Payload = b"",
    ) -> tuple[dict, memoryview]:
        """Data-plane RPC over a resolved ``(client, breaker)`` route.

        An open breaker short-circuits to :class:`NodeUnavailableError`
        without touching the wire; outcomes feed back so the breaker
        sees every probe.  :class:`RemoteDiskError` counts as a
        *success* -- the node answered, its disk is the problem.
        """
        client, breaker = route
        if breaker is not None and not breaker.allow():
            self.metrics.counter("breaker_short_circuits").inc()
            raise NodeUnavailableError(
                f"column {column}: circuit breaker open"
            )
        try:
            result = await client.request(verb, header, payload)
        except NodeUnavailableError:
            if breaker is not None:
                breaker.record_failure()
            raise
        except RemoteDiskError:
            if breaker is not None:
                breaker.record_success()
            raise
        if breaker is not None:
            breaker.record_success()
        return result

    def _frames(self, stripes: list[int]) -> list[list[int]]:
        """``stripes`` split only where a frame carrying their strips
        would exceed :data:`~repro.cluster.protocol.MAX_FRAME_BYTES`."""
        per_frame = max(1, protocol.MAX_FRAME_BYTES // self.code.strip_bytes)
        return [stripes[i : i + per_frame] for i in range(0, len(stripes), per_frame)]

    def _routes(self, column: int, stripes: list[int]) -> list[tuple[tuple, list[int]]]:
        """``stripes`` of ``column`` grouped by holder, as one
        ``(route, stripes)`` batch per node and frame."""
        groups: dict = {}
        for stripe in stripes:
            groups.setdefault(self.holders(stripe)[column], []).append(stripe)
        routed = []
        for node_id, group in groups.items():
            route = self._route(node_id)
            routed += [(route, frame) for frame in self._frames(group)]
        return routed

    async def _fan_out(
        self, verb: str, plan: list[tuple[int, list[int]]], payload_for=None,
        header_for=None,
    ) -> list[tuple[int, list[int], object]]:
        """``verb`` for each ``(column, stripes)`` of ``plan``: one RPC
        per column and holder (and frame), all concurrent, with header
        ``{"stripes": batch, **header_for(column, batch)}`` and payload
        ``payload_for(column, batch)``.

        Returns ``(column, batch, outcome)`` per RPC, the outcome being
        its ``(reply, payload)`` or the :class:`NodeUnavailableError` /
        :class:`RemoteDiskError` that lost every strip of the batch.  If
        the epoch moved while it ran, the stripes of unreachable batches
        are regrouped by their holders at the new epoch and sent once
        more.
        """
        epoch = self.membership.epoch
        done = await self._send(verb, plan, payload_for, header_for)
        failed: dict[int, list[int]] = {}
        for column, batch, outcome in done:
            if isinstance(outcome, NodeUnavailableError):
                failed.setdefault(column, []).extend(batch)
        if not failed or self.membership.epoch == epoch:
            return done
        self.metrics.counter("epoch_retries").inc()
        kept = [d for d in done if not isinstance(d[2], NodeUnavailableError)]
        return kept + await self._send(
            verb, list(failed.items()), payload_for, header_for
        )

    async def _send(
        self, verb: str, plan: list[tuple[int, list[int]]], payload_for, header_for
    ) -> list[tuple[int, list[int], object]]:
        batches = [
            (column, route, batch)
            for column, stripes in plan
            for route, batch in self._routes(column, stripes)
        ]
        outcomes = await asyncio.gather(
            *(
                self._node_request(
                    route, column, verb,
                    {"stripes": batch}
                    if header_for is None
                    else {"stripes": batch, **header_for(column, batch)},
                    b"" if payload_for is None else payload_for(column, batch),
                )
                for column, route, batch in batches
            ),
            return_exceptions=True,
        )
        for outcome in outcomes:
            if isinstance(outcome, BaseException) and not isinstance(
                outcome, (NodeUnavailableError, RemoteDiskError)
            ):
                raise outcome
        return [
            (column, batch, outcome)
            for (column, _, batch), outcome in zip(batches, outcomes)
        ]

    async def _gather(
        self, plan: list[tuple[int, list[int]]], into: dict[int, LandedStrips],
        crcs: dict[tuple[int, int], int] | None = None,
    ) -> dict[int, list[int]]:
        """Fetch each ``(column, stripes)`` of ``plan`` into ``into``,
        one ``get`` per column and holder; returns each stripe's lost
        columns.  Each strip lands in its stripe's :class:`LandedStrips`
        as a read-only byte (``uint8``) view of the reply frame it came
        in, ``[rows, element_size]``, with its place in that frame: it is
        hashed, joined and decoded from where it is
        (:meth:`_decode_landed`), and copied into a stripe buffer only by
        a caller that computes on whole stripes
        (:meth:`LandedStrips.copy_to`).  It follows a header of any
        length, so it is not word-aligned, and it stays a byte view.  A
        strip behind a latent sector costs only its own stripe's column.

        Every strip is checked against the CRC-32 sidecar its node lists
        for it before it lands, and ``crcs`` (when given) keeps that CRC
        under ``(stripe, column)``.  A strip that fails is fetched once
        more, since a flip on the wire looks the same; if it fails again
        it rotted at rest, and is lost to its stripe like a latent sector
        -- counted (``rot_erasures``) and listed in
        :attr:`dirty_stripes`, so every reader decodes around it and the
        scrub rewrites it.  A reply that does not answer for the strips
        it was asked for (by its payload size or its count of CRCs)
        loses its batch like a failed RPC (``bad_replies``).
        """
        lost: dict[int, list[int]] = {stripe: [] for stripe in into}
        suspect = self._land(await self._fan_out("get", plan), into, lost, crcs)
        if suspect:
            self.metrics.counter("strip_refetches").inc(sum(map(len, suspect.values())))
            rotted = self._land(
                await self._fan_out("get", _by_column(suspect)), into, lost, crcs
            )
            for stripe, cols in rotted.items():
                self.metrics.counter("rot_erasures").inc(len(cols))
                lost[stripe] += cols
            self._mark_columns(stale=rotted)
        return lost

    def _land(
        self, done, into: dict[int, LandedStrips], lost: dict[int, list[int]],
        crcs: dict[tuple[int, int], int] | None,
    ):
        """Land the strips of a ``get`` fan-out's ``done`` replies that
        match their CRCs in ``into``, each its byte view of the frame and
        its row there (see :meth:`_gather`), keeping each one's CRC in
        ``crcs`` (when given), and add the strips it lost to ``lost`` --
        those the reply lists ``unreadable`` among them, all of its
        strips included; returns the strips that failed their CRC, as
        stripe -> columns."""
        code = self.code
        size = code.strip_bytes
        suspect: dict[int, list[int]] = {}
        for col, batch, outcome in done:
            gone = batch  # the batch's strips that did not come back
            if not isinstance(outcome, ClusterError):
                reply, payload = outcome
                unreadable = set(reply.get("unreadable", ()))
                readable = [s for s in batch if s not in unreadable]
                listed = reply.get("crcs")
                if (isinstance(listed, list) and len(listed) == len(readable)
                        and len(payload) == len(readable) * size):
                    gone = [s for s in batch if s in unreadable]
                    strips = np.frombuffer(payload, np.uint8).reshape(
                        len(readable), code.rows, code.element_size
                    )
                    view = memoryview(payload)
                    for i, stripe in enumerate(readable):
                        crc = zlib.crc32(view[i * size : (i + 1) * size])
                        if crc == listed[i]:
                            into[stripe][col] = strips[i]
                            into[stripe].frames[col] = (strips, i)
                            if crcs is not None:
                                crcs[stripe, col] = crc
                        else:
                            self.metrics.counter("strip_crc_mismatches").inc()
                            suspect.setdefault(stripe, []).append(col)
                else:
                    self.metrics.counter("bad_replies").inc()
            for stripe in gone:
                lost[stripe].append(col)
        return suspect

    def _shut(self, stripe: int, cols: list[int]) -> list[int]:
        """The columns of ``cols`` whose holder of ``stripe`` has a
        breaker that would short-circuit a request now
        (:meth:`_node_request`)."""
        if not self.breakers:
            return []
        holders = self.holders(stripe)
        return [
            col for col in cols
            if (breaker := self.breakers.get(holders[col])) is not None
            and not breaker.allow()
        ]

    async def _fetch_for(
        self, strips: dict[int, LandedStrips], erasures: dict[int, set[int]],
        restore, crcs: dict[tuple[int, int], int] | None = None,
    ) -> None:
        """Land in each stripe's :class:`LandedStrips` in ``strips``
        (see :meth:`_gather`) what it takes to hold its ``restore``
        columns, keeping each landed strip's CRC in ``crcs``.

        A stripe whose ``restore`` columns are intact fetches just
        them.  One that must decode fetches only what its decode reads
        (:meth:`~repro.codes.base.RAID6Code.sources` of its erasures):
        for one lost data column of a Liberation stripe, the other data
        columns and P, not Q.  Columns already in ``erasures`` -- lost
        to an earlier fetch, or listed stale -- are never asked for, so
        none of them ever lands.  Nor is a column whose holder's
        circuit breaker is open when the fetch is planned: it joins the
        stripe's ``erasures`` before any request goes out, so a read
        with a known-down data node asks for P in its one round (a
        HALF_OPEN breaker lets its trial through and is asked).  A
        column a fetch loses, for any reason, joins the stripe's
        ``erasures`` (updated in place), and one more fetch widens to
        the sources of the larger pattern.  Raises
        :class:`ClusterDegradedError` for a stripe that would have to
        decode more than two erasures.
        """
        fetched: dict[int, set[int]] = {stripe: set() for stripe in strips}
        pending = list(strips)  # the stripes whose erasures changed
        while pending:
            want: dict[int, list[int]] = {}
            for stripe in pending:
                erased = erasures[stripe]
                while True:  # until no column planned sits behind an open breaker
                    if erased.isdisjoint(restore):
                        cols = restore
                    elif len(erased) > 2:
                        raise ClusterDegradedError(
                            f"stripe {stripe}: columns {sorted(erased)} lost; "
                            "RAID-6 tolerates 2"
                        )
                    else:
                        cols = self.code.sources(erased)
                    cols = [c for c in cols if c not in erased and c not in fetched[stripe]]
                    shut = self._shut(stripe, cols)
                    if not shut:
                        break
                    erased.update(shut)
                if cols:
                    want[stripe] = cols
            if not want:
                return
            lost = await self._gather(_by_column(want), {s: strips[s] for s in want}, crcs)
            pending = [s for s in want if lost[s]]
            for stripe in pending:
                erasures[stripe].update(lost[stripe])
            for stripe, cols in want.items():
                fetched[stripe].update(cols)

    # -- stripe I/O --------------------------------------------------------

    async def _await_migrations(self, stripes: list[int]) -> None:
        """Return once no stripe of ``stripes`` is mid-migration: such a
        stripe is read only once its migration is over, never routed
        through holders that are about to change."""
        while True:
            moving = next((s for s in stripes if s in self.migrating), None)
            if moving is None:
                return
            async with self.stripe_lock(moving):
                pass

    def _stripe_buffer(self) -> np.ndarray:
        """A stripe buffer shaped as ``code.alloc_stripe()``'s, left
        unfilled: whoever takes one writes every column it reads."""
        code = self.code
        return np.empty(
            (code.total_cols, code.rows, element_words(code.element_size)), WORD_DTYPE
        )

    def _decode_landed(
        self, stripes: list[int], strips: dict[int, LandedStrips],
        erasures: dict[int, set[int]], crcs: dict[tuple[int, int], int] | None = None,
        *, coder: BatchCoder | None = None, into: dict[int, np.ndarray] | None = None,
    ) -> None:
        """Decode each stripe of ``stripes`` around its ``erasures``
        from its landed strips (:meth:`_land`), where they are, and add
        each strip it decodes to them.

        A run of stripes, consecutive in ``stripes``, that share an
        erasure pattern, and whose strips of each column the decode
        reads sit as consecutive rows of one reply frame, decodes as one
        batch through ``coder`` (the array's own by default): each such
        column is those rows of its frame, transposed to ``[rows, n,
        element_size]`` (:class:`~repro.parallel.BatchColumns`), so the
        code binds its plan once for the run.  A stripe that cannot
        join its neighbours -- its strip was fetched again, or rotted or
        was unreadable and widened its pattern; its frame was split at
        ``MAX_FRAME_BYTES``; its column is spread over nodes -- is a run
        of its own, and so is every stripe of a code with no XOR
        schedule (Reed-Solomon).

        Each column a decode writes is a zeroed stripe-major array
        ``[n, rows, element_size]`` whose row ``i`` becomes the run's
        ``i``-th stripe's strip: a row of ``into[column]`` where the
        caller passes one (zeroed, and as long as ``stripes``), else a
        fresh array.  With ``crcs``, each decoded data strip's CRC-32,
        its hash, is kept there.
        """
        code = self.code
        coder = coder or self._coder
        batched = isinstance(code, XorScheduleCode)
        scratch = range(code.n_cols, code.total_cols)
        patterns = [tuple(sorted(erasures[s])) for s in stripes]
        start = 0
        while start < len(stripes):
            pattern = patterns[start]
            sources = code.sources(pattern)
            stop = start + 1
            while (batched and stop < len(stripes) and patterns[stop] == pattern
                   and strips[stripes[stop]].follows(strips[stripes[stop - 1]], sources)):
                stop += 1
            n = stop - start
            outs = {
                c: into[c][start:stop] if into and c in into
                else np.zeros((n, code.rows, code.element_size), np.uint8)
                for c in (*pattern, *scratch)
            }
            first = strips[stripes[start]]
            coder.decode(BatchColumns(
                outs[c].transpose(1, 0, 2) if c in outs
                else first.frame_rows(c, n) if c in sources else None
                for c in range(code.total_cols)
            ), pattern)
            for i, stripe in enumerate(stripes[start:stop]):
                for c in pattern:
                    strips[stripe][c] = outs[c][i]
                    if crcs is not None and c < code.k:
                        crcs[stripe, c] = zlib.crc32(outs[c][i])
            start = stop

    async def _fetch_data(
        self, stripes: list[int], lost: dict[int, list[int]] | None = None,
        crcs: dict[tuple[int, int], int] | None = None,
    ) -> dict[int, LandedStrips]:
        """Land the data columns of ``stripes``, decoding around lost
        columns: each stripe's landed and decoded strips.

        The sunny-day path is one ``get`` per data column (and holder)
        for all of ``stripes``; only the stripes that lost a data column
        -- unreachable, unreadable, rotted or known stale -- fetch what
        their decode reads, again batched (:meth:`_fetch_for`), and
        decode where their strips landed (:meth:`_decode_landed`), each
        counted on ``decodes`` and ``degraded_reads``.  So a stale P or
        Q matters only to a stripe that decodes.  ``lost`` names each
        stripe's columns an earlier fetch already lost: they count as
        erasures and are not asked for again, so an unreachable node
        costs its retry budget once.
        """
        known = lost or {}
        erasures = {s: set(self.dirty_stripes.get(s, ())) | set(known.get(s, ())) for s in stripes}
        data = range(self.code.k)
        strips = {s: LandedStrips() for s in stripes}
        await self._fetch_for(strips, erasures, data, crcs)
        decode = [s for s in stripes if not erasures[s].isdisjoint(data)]
        if decode:
            self._decode_landed(decode, strips, erasures, crcs)
            self.metrics.counter("decodes").inc(len(decode))
            self.metrics.counter("degraded_reads").inc(len(decode))
        return strips

    async def _fetch_stripes(
        self, stripes: list[int], lost: dict[int, list[int]] | None = None,
    ) -> list[np.ndarray]:
        """:meth:`_fetch_data`'s strips, copied into zero-filled stripe
        buffers: a column the decode does not read stays zero."""
        for stripe in stripes:
            self._check_stripe(stripe)
        strips = await self._fetch_data(stripes, lost)
        return [strips[s].copy_to(self.code.alloc_stripe()) for s in stripes]

    async def read_stripe(self, stripe: int) -> np.ndarray:
        """Assemble one zero-filled stripe buffer once the stripe is not
        mid-migration, decoding around lost columns."""
        await self._await_migrations([stripe])
        return (await self._fetch_stripes([stripe]))[0]

    def _wrote(self, stripes: list[int], done) -> dict[int, list[int]]:
        """Settle a write's fan-out ``done``: the columns it landed are
        fresh and the ones it skipped stale (:meth:`_mark_columns`), so
        a write of every column leaves only its own skips listed.
        Returns each stripe's skipped columns; raises
        :class:`ClusterDegradedError` for a stripe that lost more than
        two."""
        landed, skipped = _landed(done)
        self._mark_columns(fresh=landed, stale=skipped)
        if skipped:
            self.metrics.counter("degraded_writes").inc(len(skipped))
        beyond = [s for s in sorted(skipped) if len(skipped[s]) > 2]
        if beyond:
            raise ClusterDegradedError(
                f"stripe {beyond[0]}: write lost columns {sorted(skipped[beyond[0]])}"
            )
        return {stripe: sorted(skipped.get(stripe, ())) for stripe in stripes}

    def _mark_columns(
        self, *, fresh: dict[int, list[int]] | None = None,
        stale: dict[int, list[int]] | None = None,
    ) -> None:
        """The one place :attr:`dirty_stripes` changes, by one rule.

        A column that a write's ``put`` or ``xor``, a repair's ``put``
        or a migration's flip landed holds fresh bytes: ``fresh``
        (stripe -> columns) takes it off its stripe's stale set.  A
        column a write skipped, or a fetch found rotted, holds stale
        bytes: ``stale`` adds it.  A repair that misses a column names
        it in neither, so its state stays as it was.  A stripe left
        with no stale column is not listed.
        """
        for stripe, cols in (fresh or {}).items():
            listed = self.dirty_stripes.get(stripe)
            if listed is not None:
                listed.difference_update(cols)
                if not listed:
                    del self.dirty_stripes[stripe]
        for stripe, cols in (stale or {}).items():
            if cols:
                self.dirty_stripes.setdefault(stripe, set()).update(cols)

    async def _write_back(
        self, repairs: dict[int, list[int]], bufs: dict[int, np.ndarray]
    ) -> dict[int, list[int]]:
        """Put each stripe's ``repairs`` columns of its buffer in
        ``bufs`` back on their nodes, one ``put`` per column and holder:
        how the scrub and the rebuild return what they decoded or
        located.  A column it lands is fresh; one it misses keeps the
        state it had (:meth:`_mark_columns`).  Returns each stripe's
        missed columns, and sends nothing when nothing is to be
        repaired.  The caller holds the stripes' locks."""
        plan = _by_column(repairs)
        if not plan:
            return {}
        landed, missed = _landed(await self._fan_out("put", plan, *_strips_of(bufs)))
        self._mark_columns(fresh=landed)
        return missed

    async def write_stripe(
        self, stripe: int, buf: np.ndarray, *, columns: list[int] | None = None
    ) -> list[int]:
        """Scatter (selected columns of) one stripe buffer to the nodes,
        one ``put`` per column and holder, under the stripe's lock.

        Columns whose node cannot be reached are skipped -- degraded
        write semantics -- unless that would leave the stripe beyond
        RAID-6 tolerance, which raises :class:`ClusterDegradedError`.
        Returns the *skipped* columns (empty means fully durable), which
        :meth:`_wrote` lists stale so reads decode around them and the
        scrubber repairs them first once their nodes return.
        """
        self._check_stripe(stripe)
        cols = range(self.code.n_cols) if columns is None else columns
        async with self.stripe_lock(stripe):
            done = await self._fan_out(
                "put", [(col, [stripe]) for col in cols], *_strips_of({stripe: buf})
            )
            return self._wrote([stripe], done)[stripe]

    # -- byte-addressed user I/O -------------------------------------------

    def _stripe_payload(self, buf: np.ndarray) -> memoryview:
        """Zero-copy byte view of the data columns (``buf`` is
        C-contiguous, so its leading-column slice is too)."""
        return memoryview(buf[: self.code.k]).cast("B")

    def _fill_data_columns(self, buf: np.ndarray, payload: bytes) -> None:
        self._stripe_payload(buf)[:] = payload

    async def write(self, offset: int, data: bytes) -> None:
        """Write user bytes; stripe-aligned spans take the encode path,
        everything else is a delta write (see :meth:`write_spans`)."""
        await self.write_spans([(offset, data)])

    def _write_token(self) -> str:
        """A write token no other write shares: this array's nonce and a
        counter.  The nonce is drawn on first use, from ``rng`` when the
        array has one, so a simulated run replays; arrays sharing nodes
        must then not share a seed."""
        if self._nonce is None:
            bits = self.rng.getrandbits(64) if self.rng is not None else secrets.randbits(64)
            self._nonce = f"{bits:016x}"
        self._writes += 1
        return f"{self._nonce}-{self._writes}"

    async def write_spans(
        self, spans: list[tuple[int, bytes]], *, read_old: bool = False
    ) -> tuple[list[int], list[bytes] | None]:
        """Write ``(offset, data)`` byte spans as one batch.

        A stripe that one span covers whole takes the encode path and
        puts every column.  Every other touched stripe is a **delta
        write**, at Liberation's update cost: its touched data strips
        are fetched and put back patched, and the parity delta --
        ``code.update`` of each touched element on a zeroed scratch
        stripe -- is XORed into just the P and Q rows it touches, by
        an ``xor`` whose write token lets a strip answer a retry
        without applying the delta twice.  A stripe listed in
        :attr:`dirty_stripes`, or one whose touched data column does
        not answer the fetch, falls back to reading the whole stripe
        (decoding around the lost columns, which it does not ask for
        again), a re-encode and a put of every column.

        Spans apply in order.  The touched stripes go out in one round:
        one ``put`` per column and holder, and one ``xor`` per parity
        column and holder.  A column a write skips is listed in
        :attr:`dirty_stripes` (see :meth:`_wrote`).  The stripes' locks
        are held from the fetch to the last write, so two writes into
        one stripe cannot both patch the same old image.

        The user's bytes are hashed once, in strip-aligned pieces.  A
        piece that fills a strip gives the CRC-32 its ``put`` lists, so
        the node checks the strip the layout built against the caller's
        bytes.  Where the code's P is the row parity
        (:attr:`~repro.codes.base.RAID6Code.p_is_row_parity`), an encoded
        stripe's P lists the fold of its data strips' CRCs
        (:func:`~repro.utils.crc.crc32_xor`).  Every other strip is
        hashed as built.

        Returns each span's CRC-32, folded from its pieces', and with
        ``read_old`` the bytes each span overwrote (else None), in span
        order; with ``read_old`` a stripe covered whole is patched like
        the rest.
        """
        code, sdb, size = self.code, self.stripe_data_bytes, self.code.strip_bytes
        #: stripe -> its pieces, (offset in the stripe payload, bytes)
        pieces: dict[int, list[tuple[int, memoryview]]] = {}
        #: per span, where its pieces landed: (stripe, index in pieces)
        placed: list[list[tuple[int, int]]] = []
        #: (stripe, column) -> CRC-32 of the strip the write puts
        known: dict[tuple[int, int], int] = {}
        #: the stripes one span covers whole
        whole: set[int] = set()
        crcs = []
        for offset, data in spans:
            placed.append([])
            crc = 0
            if data and (offset < 0 or offset + len(data) > self.capacity):
                raise ValueError("write outside the array")
            # Pieces are hashed now and copied in after the fetch, so a
            # span over a mutable buffer is snapshotted first.
            source, at = memoryview(data), 0
            if not source.readonly:
                source = memoryview(bytes(source))
            for stripe, col, within, take in _strip_parts(
                offset, offset + len(data), sdb, size
            ):
                chunk = source[at : at + take]
                if not (within or read_old) and len(data) - at >= sdb:
                    whole.add(stripe)
                piece = pieces.setdefault(stripe, [])
                placed[-1].append((stripe, len(piece)))
                piece.append((within, chunk))
                part = zlib.crc32(chunk)
                if take == size:
                    known[stripe, col] = part
                else:  # pieces apply in order: this one changes part of the strip
                    known.pop((stripe, col), None)
                crc = crc32_combine(crc, part, take)
                at += take
            crcs.append(crc)
        stripes = sorted(pieces)
        columns = {s: _touched(pieces[s], size) for s in stripes if s not in whole}
        async with self.stripe_locks(stripes):
            bufs = {s: self._stripe_buffer() for s in stripes}
            delta = [s for s in columns if s not in self.dirty_stripes]
            lost: dict[int, list[int]] = {}
            if delta:
                strips = {s: LandedStrips() for s in delta}
                lost = await self._gather(_by_column({s: columns[s] for s in delta}), strips)
                delta = [s for s in delta if not lost[s]]
                for stripe in delta:  # its touched strips, copied out of their frames
                    strips[stripe].copy_to(bufs[stripe])
            fallback = [s for s in columns if s not in delta]
            if fallback:
                bufs.update(zip(fallback, await self._fetch_stripes(fallback, lost)))

            old: dict[int, list[bytes]] = {s: [] for s in stripes}
            parity: dict[int, np.ndarray] = {}
            for stripe in stripes:
                buf = bufs[stripe]
                if stripe in delta:  # the elements it patches, as they were
                    elements = _touched(pieces[stripe], code.element_size)
                    cells = [divmod(element, code.rows) for element in elements]
                    before = [buf[col, row].copy() for col, row in cells]
                view = self._stripe_payload(buf)
                for within, chunk in pieces[stripe]:
                    if read_old:
                        old[stripe].append(bytes(view[within : within + len(chunk)]))
                    view[within : within + len(chunk)] = chunk
                if stripe in whole:
                    self.metrics.counter("full_stripe_writes").inc()
                else:  # a read-modify-write, by delta or by fallback
                    self.metrics.counter("rmw_writes").inc()
                if stripe in delta:
                    parity[stripe] = self._parity_delta(buf, cells, before)
                    self.metrics.counter("delta_writes").inc()
                else:  # an encode plan may accumulate into parity and scratch
                    buf[code.k :] = 0
                    code.encode(buf)

            puts = {s: columns[s] if s in parity else range(code.n_cols) for s in stripes}
            for stripe, cols in puts.items():
                for col in cols:  # ascending: a stripe that puts P puts its data first
                    if (stripe, col) in known:
                        continue
                    if col == code.p_col and code.p_is_row_parity:
                        # A stripe that puts P was encoded above.
                        known[stripe, col] = crc32_xor(
                            (known[stripe, c] for c in range(code.k)), size
                        )
                    else:
                        known[stripe, col] = zlib.crc32(bufs[stripe][col])
            rows = {
                (s, col): np.flatnonzero(parity[s][col].any(axis=1)).tolist()
                for s in delta
                for col in (code.p_col, code.q_col)
            }
            xors = _by_column({
                s: [col for col in (code.p_col, code.q_col) if rows[s, col]] for s in delta
            })
            sends = [self._fan_out("put", _by_column(puts), *_strips_of(bufs, known))]
            if xors:
                token = self._write_token()
                sends.append(self._fan_out(
                    "xor", xors,
                    lambda col, batch: [parity[s][col][rows[s, col]] for s in batch],
                    lambda col, batch: {
                        "rows": [rows[s, col] for s in batch],
                        "row_bytes": code.element_size,
                        "token": token,
                    },
                ))
            self._wrote(stripes, [d for sent in await asyncio.gather(*sends) for d in sent])
        if not read_old:
            return crcs, None
        return crcs, [b"".join(old[s][i] for s, i in where) for where in placed]

    def _parity_delta(
        self, buf: np.ndarray, cells: list[tuple[int, int]], before: list[np.ndarray]
    ) -> np.ndarray:
        """The P and Q change a patch makes to a stripe: ``code.update``
        of each element it touches -- at ``cells``, ``(column, row)`` --
        by its change from ``before`` to what ``buf`` holds, on a zeroed
        scratch stripe (every code here is linear)."""
        code = self.code
        scratch = code.alloc_stripe()
        for (col, row), was in zip(cells, before):
            code.update(scratch, col, row, buf[col, row] ^ was)
        return scratch

    async def read(self, offset: int, length: int) -> bytes:
        """Read user bytes, transparently decoding around failures."""
        return (await self.read_spans([(offset, length)]))[0][0]

    async def read_spans(self, spans: list[tuple[int, int]]) -> list[tuple[bytes, int]]:
        """Read ``(offset, length)`` byte spans as one batch: once no
        stripe they touch is mid-migration, every one of them is
        fetched by one ``get`` per column and holder, decoding around
        failures.

        A strip that passes its check stays a read-only byte view of
        the reply frame it came in (:meth:`_gather`), and each span is
        one join of its strips' views, the read's one copy of its bytes.
        A stripe that lost a data column decodes from those views where
        they are (:meth:`_decode_landed`): only the columns the decode
        writes are new arrays, and the spans join its decoded strips
        with the views.  Stripes that lost the same columns and whose
        strips came in the same frames decode as one batch, so a get of
        an object over several stripes binds the decode plan once.  The
        read allocates no stripe buffer and copies no fetched strip.  A
        column whose node's breaker is open is planned around before the
        first fetch (:meth:`_fetch_for`), so a read with a data node
        known down fetches P in its one round.

        Returns each span's bytes and CRC-32.  The CRC is folded from
        the CRCs its strips were checked with where they landed (a
        decoded strip's is its hash, taken once); only a span's part of
        a strip is hashed."""
        code = self.code
        sdb, size = self.stripe_data_bytes, code.strip_bytes
        touched: set[int] = set()
        for offset, length in spans:
            if length < 0 or offset < 0 or offset + length > self.capacity:
                raise ValueError("read outside the array")
            if length:
                touched.update(range(offset // sdb, (offset + length - 1) // sdb + 1))
        stripes = sorted(touched)
        await self._await_migrations(stripes)
        crcs: dict[tuple[int, int], int] = {}
        strips = await self._fetch_data(stripes, crcs=crcs)
        out = []
        for offset, length in spans:
            parts, crc = [], 0
            for stripe, col, within, take in _strip_parts(offset, offset + length, sdb, size):
                at = within - col * size
                part = memoryview(strips[stripe][col]).cast("B")[at : at + take]
                parts.append(part)
                crc = crc32_combine(
                    crc, crcs[stripe, col] if take == size else zlib.crc32(part), take
                )
            out.append((b"".join(parts), crc))
        return out

    # -- health / metrics (node-keyed) -------------------------------------

    async def _ask_each(self, node_ids, verb: str) -> dict:
        """``verb`` to every node of ``node_ids``; the reply header, or
        None where the node did not answer."""

        async def ask(node_id) -> dict | None:
            try:
                reply, _ = await self.client_for_node(node_id).request(verb)
            except Exception:
                return None
            return reply

        return dict(zip(node_ids, await asyncio.gather(*(ask(n) for n in node_ids))))

    async def ping(self) -> dict:
        """Liveness of every probed node, keyed by node id (never raises)."""
        replies = await self._ask_each(self.membership.probed(), "ping")
        return {node_id: reply is not None for node_id, reply in replies.items()}

    async def node_stats(self) -> dict:
        """Each serving node's ``stats`` reply header (None if unreachable)."""
        return await self._ask_each(self.membership.serving(), "stats")

    async def stats(self) -> dict:
        """Aggregate view: the epoch, client-side metrics and per-node
        snapshots keyed by node id."""
        nodes = await self.node_stats()
        return {
            "epoch": self.membership.epoch,
            "client": self.metrics.snapshot(),
            "nodes": {
                node_id: None
                if reply is None
                else {"held": reply.get("held"),
                      "stats": reply.get("stats"),
                      "disk": reply.get("disk")}
                for node_id, reply in nodes.items()
            },
        }
