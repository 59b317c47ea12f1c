"""Background stripe migration: drain/fill nodes under a throttle.

The rebalancer converges :attr:`ClusterArray.locations` (where stripes
*are*) toward the array's placement (where the current membership
epoch says they *should* be).  One stripe migrates under its lock in
four steps:

1. **Assemble** -- read the stripe through the decode path (dead,
   faulty, stale or rotted sources are decoded around like any
   degraded read) and re-encode parity, so the migrated image is
   internally consistent even when a source copy was stale.
2. **Put and flip, in rounds** -- each round ``put``s every moving
   column whose target holds no routed strip of the stripe, its CRC-32
   listed (the node checks the strip on arrival and keeps that CRC as
   its sidecar), then flips just those columns in ``locations`` and
   bumps the epoch.  A node keeps one strip per stripe, so a target
   that still serves another column of the stripe waits for a later
   round, after that column flipped away.  A crash anywhere leaves
   each column routed to its old holder or its new one, and the bytes
   there are that column's; a re-run starts over from the routing it
   finds, since a ``put`` is idempotent and an unflipped one is never
   read.
3. **Read back** -- the stripe is read through the new route and
   compared byte-for-byte with the assembled image.  On a mismatch a
   moved column routes back to its source only if that source took no
   other column; the rest are listed stale for the scrub, and the
   migration fails.
4. **Release** -- each vacated source's strip is released, fenced by
   the CRC the source currently advertises.

Migration traffic is a guest, not a tenant: every moved payload passes
through a :class:`TokenBucket` (injectable clock, so throttling works
in virtual time), and an optional ``foreground_gate`` callable pauses
the migrator entirely while foreground pressure is high (e.g. the
gateway's queue depth).
"""

from __future__ import annotations

import asyncio
import contextlib

import numpy as np

from repro.cluster.client import ClusterArray, ClusterError
from repro.cluster.membership import MembershipError, NodeState
from repro.cluster.protocol import Payload, strip_crcs
from repro.sim.clock import Clock

__all__ = [
    "ClientCrash", "ClientCrashPoint", "RebalanceError", "TokenBucket", "Rebalancer",
]


class RebalanceError(ClusterError):
    """A migration could not complete (verification or protocol failure)."""


class ClientCrash(Exception):
    """Injected client death: the coordinator vanished mid-protocol.

    Tests catch it where a real deployment would lose the process; the
    cluster is then in whatever state the completed RPCs left, and a
    fresh coordinator must converge it.
    """


class ClientCrashPoint:
    """Deterministic client-side crash trigger, counted in RPCs.

    ``arm(after=n)`` makes the coordinator die immediately before its
    ``n+1``-th protocol RPC, in issue order, so a sweep over ``n``
    covers every client-side crash position of a migration.  Disarmed
    by default and after firing.
    """

    def __init__(self) -> None:
        self._remaining: int | None = None
        self.steps = 0

    def arm(self, *, after: int = 0) -> None:
        self._remaining = int(after)

    def step(self) -> None:
        """Account one imminent RPC; raises :class:`ClientCrash` if armed out."""
        self.steps += 1
        if self._remaining is None:
            return
        if self._remaining == 0:
            self._remaining = None
            raise ClientCrash(f"client crashed before protocol RPC #{self.steps}")
        self._remaining -= 1


class TokenBucket:
    """Debt-model token bucket on an injectable clock.

    ``take(n)`` always succeeds immediately in accounting terms but
    sleeps long enough afterwards to pay any overdraft back at ``rate``
    tokens/second, so a single oversized strip cannot starve forever
    and sustained throughput converges to ``rate`` exactly.
    """

    def __init__(self, rate: float, burst: float, clock: Clock) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self.clock = clock
        self._tokens = float(burst)
        self._last = clock.time()

    def _refill(self) -> None:
        now = self.clock.time()
        self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
        self._last = now

    async def take(self, n: float) -> float:
        """Consume ``n`` tokens; returns the seconds slept paying debt."""
        self._refill()
        self._tokens -= float(n)
        if self._tokens >= 0:
            return 0.0
        delay = -self._tokens / self.rate
        await self.clock.sleep(delay)
        self._refill()
        return delay


def _rounds(
    stripe: int, current: tuple, target: tuple, moving: list[int]
) -> list[list[int]]:
    """Order the ``moving`` columns of ``stripe`` into put-and-flip rounds.

    A node keeps one strip per stripe, so a column may land on its
    target only once no routed column of the stripe is there: each
    round takes every moving column whose target then holds none, and
    its flips vacate the sources the next round lands on.  Raises
    :class:`RebalanceError`, before anything is written, when the
    remaining columns would each land on another's holder (a cycle).
    """
    routed = list(current)
    left = list(moving)
    rounds = []
    while left:
        ready = [col for col in left if target[col] not in routed]
        if not ready:
            raise RebalanceError(
                f"stripe {stripe}: columns {left} would each land on "
                "another's holder"
            )
        for col in ready:
            routed[col] = target[col]
        rounds.append(ready)
        left = [col for col in left if col not in ready]
    return rounds


class Rebalancer:
    """Throttled stripe migrator for one :class:`ClusterArray`.

    Drive it with :meth:`run_until_converged` (tests, drains) or the
    background loop (:meth:`start` / :meth:`stop`).  ``crash`` is a
    :class:`ClientCrashPoint` counting this coordinator's protocol
    RPCs: arm it to sweep every coordinator-crash position of a
    migration.
    """

    def __init__(
        self,
        array: ClusterArray,
        *,
        rate_bytes: float | None = None,
        burst_bytes: float | None = None,
        foreground_gate=None,
        gate_backoff: float = 0.05,
    ) -> None:
        self.array = array
        self.clock = array.clock
        self.throttle = (
            None
            if rate_bytes is None
            else TokenBucket(
                rate_bytes,
                rate_bytes if burst_bytes is None else burst_bytes,
                array.clock,
            )
        )
        #: callable -> truthy while foreground traffic should win;
        #: checked between stripes, never mid-migration
        self.foreground_gate = foreground_gate
        self.gate_backoff = float(gate_backoff)
        self.crash = ClientCrashPoint()
        self._task: asyncio.Task | None = None

    # -- protocol plumbing ---------------------------------------------------

    async def _rpc(
        self, node_id, verb: str, header: dict, payload: Payload = b""
    ) -> dict:
        self.crash.step()
        reply, _ = await self.array.client_for_node(node_id).request(
            verb, header, payload
        )
        return reply

    # -- planning ------------------------------------------------------------

    def targets(self, stripe: int) -> tuple:
        return self.array.placement.nodes_for(stripe)

    def misplaced(self) -> list[int]:
        """Stripes whose current holders differ from placement."""
        return [
            s
            for s in range(self.array.n_stripes)
            if self.array.holders(s) != self.targets(s)
        ]

    def strips_on(self, node_id) -> int:
        """How many strips currently route to ``node_id`` (drain progress)."""
        return sum(
            1
            for s in range(self.array.n_stripes)
            if node_id in self.array.holders(s)
        )

    # -- one stripe ----------------------------------------------------------

    async def migrate_stripe(self, stripe: int) -> bool:
        """Migrate one stripe to its placement targets; True if it moved.

        Holds the stripe lock end to end, so foreground writes order
        entirely before or after the migration and the assembled image
        can never go stale mid-protocol.
        """
        array = self.array
        async with array.stripe_lock(stripe):
            current = array.holders(stripe)
            target = self.targets(stripe)
            if current == target:
                return False
            moving = [c for c in range(array.code.n_cols) if current[c] != target[c]]
            cm = (
                contextlib.nullcontext()
                if array.tracer is None
                else array.tracer.span(
                    "rebalance.migrate", stripe=stripe, strips=len(moving)
                )
            )
            # Readers of this stripe wait on the lock from here on: a
            # read routed before a flip could reach a source that was
            # released, or that took another column of the stripe.
            array.migrating.add(stripe)
            try:
                with cm:
                    await self._migrate_locked(stripe, current, target, moving)
            finally:
                array.migrating.discard(stripe)
            return True

    async def _migrate_locked(
        self,
        stripe: int,
        current: tuple,
        target: tuple,
        moving: list[int],
    ) -> None:
        array = self.array
        code = array.code
        rounds = _rounds(stripe, current, target, moving)

        # 1. assemble through the decode path, re-encode for parity
        # consistency (a read leaves unfetched parity columns zero).
        # The fetch skips the read path's migration gate -- we hold
        # this stripe's lock ourselves -- and decodes around columns a
        # degraded write left stale, so no old bytes move.
        (buf,) = await array._fetch_stripes([stripe])
        code.encode(buf)
        moved_bytes = sum(buf[col].nbytes for col in moving)

        # throttle on the bytes about to move (before they move, so a
        # drained bucket delays the copy, not the release)
        if self.throttle is not None:
            await self.throttle.take(moved_bytes)

        # 2. put each round's columns on their targets, then flip them
        stale = set(array.dirty_stripes.get(stripe, ()))
        for cols in rounds:
            for col in cols:
                await self._rpc(
                    target[col],
                    "put",
                    {"stripe": stripe, "crcs": strip_crcs([buf[col]])},
                    buf[col],
                )
            self._reroute(stripe, {col: target[col] for col in cols})
            # The moved columns just landed freshly encoded strips; a
            # stale column that stayed put is still stale.
            array._mark_columns(fresh={stripe: cols})
        array.metrics.counter("stripes_migrated").inc()
        array.metrics.counter("migration_bytes").inc(moved_bytes)

        # 3. decode-path read-back through the new route
        (check,) = await array._fetch_stripes([stripe])
        if not np.array_equal(check[: code.k], buf[: code.k]):
            # Every put verified on arrival, yet the stripe does not
            # read back.  A moved column may route back only to a
            # source that took no other column -- any other source's
            # slot now holds that column's bytes -- so the columns left
            # at their targets are listed stale for the scrub.
            taken = {target[col] for col in moving}
            back = [col for col in moving if current[col] not in taken]
            self._reroute(stripe, {col: current[col] for col in back})
            suspect = (set(moving) - set(back)) | (stale & set(back))
            array._mark_columns(stale={stripe: sorted(suspect)})
            raise RebalanceError(f"stripe {stripe}: post-flip read-back diverged")

        # 4. release the vacated sources
        await self._release_sources(stripe, current, target, moving)

    def _reroute(self, stripe: int, holders: dict) -> None:
        """Route each column of ``holders`` to its node; bump the epoch."""
        locs = list(self.array.locations[stripe])
        for col, node_id in holders.items():
            locs[col] = node_id
        self.array.locations[stripe] = tuple(locs)
        self.array.membership.bump()

    async def _release_sources(
        self,
        stripe: int,
        current: tuple,
        target: tuple,
        moving: list[int],
    ) -> None:
        """Release the old copies, fenced by each source's own CRC.

        Best effort by design: an unreachable or dead source keeps its
        (now unrouted) strip, which is garbage, not a hazard -- the
        flip already happened.  A source that still ends up a holder of
        this stripe on another column (pool smaller than 2 * n_cols)
        is skipped.
        """
        array = self.array
        still_holding = set(target)
        for col in moving:
            node_id = current[col]
            if node_id in still_holding:
                continue
            entry = array.membership.nodes.get(node_id)
            if entry is None or entry.state not in (
                NodeState.LIVE, NodeState.DRAINING
            ):
                continue
            try:
                probe = await self._rpc(node_id, "scrub-read", {"stripe": stripe})
                await self._rpc(
                    node_id,
                    "release",
                    {"stripe": stripe, "crc": int(probe["crc_stored"][0])},
                )
            except ClusterError:
                continue

    # -- convergence ---------------------------------------------------------

    async def _yield_to_foreground(self) -> None:
        while self.foreground_gate is not None and self.foreground_gate():
            self.array.metrics.counter("rebalance_yields").inc()
            await self.clock.sleep(self.gate_backoff)

    async def run_until_converged(self, *, max_rounds: int = 16) -> int:
        """Migrate until no stripe is misplaced; returns stripes moved.

        Per-stripe failures (an unreachable target, a verification
        refusal) are retried on later rounds; a full round with zero
        progress and outstanding work raises :class:`RebalanceError`
        so callers never spin silently.
        """
        array = self.array
        moved = 0
        for _ in range(max_rounds):
            todo = self.misplaced()
            array.metrics.gauge("rebalance_misplaced").set(len(todo))
            if not todo:
                return moved
            progressed = False
            failures: list[str] = []
            for stripe in todo:
                await self._yield_to_foreground()
                try:
                    if await self.migrate_stripe(stripe):
                        moved += 1
                        progressed = True
                except ClusterError as exc:
                    failures.append(f"stripe {stripe}: {exc}")
            if not progressed:
                raise RebalanceError(
                    f"rebalance stalled with {len(todo)} stripes misplaced: "
                    + "; ".join(failures[:3])
                )
        remaining = self.misplaced()
        array.metrics.gauge("rebalance_misplaced").set(len(remaining))
        if remaining:
            raise RebalanceError(
                f"rebalance did not converge in {max_rounds} rounds; "
                f"{len(remaining)} stripes still misplaced"
            )
        return moved

    async def drain(self, node_id, *, remove: bool = True) -> int:
        """Gracefully empty one node; returns the stripes migrated.

        Marks the node DRAINING (it keeps serving reads and strip
        writes throughout), refuses to start if the remaining LIVE
        pool could not host every column, converges, proves the node
        holds no routed strip, and finally tombstones it.
        """
        array = self.array
        table = array.membership
        pool = set(table.placement_pool())
        if len(pool - {node_id}) < array.code.n_cols:
            raise MembershipError(
                f"draining {node_id!r} would leave "
                f"{len(pool - {node_id})} live nodes < {array.code.n_cols} columns"
            )
        if table.state_of(node_id) is not NodeState.DRAINING:
            table.drain(node_id)
        total = self.strips_on(node_id)
        array.metrics.gauge("drain_remaining").set(total)
        moved = await self.run_until_converged()
        left = self.strips_on(node_id)
        array.metrics.gauge("drain_remaining").set(left)
        if left:
            raise RebalanceError(
                f"drain of {node_id!r} finished rebalance but {left} strips "
                f"still route there"
            )
        if remove:
            table.remove(node_id)
        return moved

    # -- background driving --------------------------------------------------

    def start(self, *, interval: float = 1.0) -> asyncio.Task:
        """Converge-on-change loop: poll for misplacement, migrate, sleep."""
        if self._task is not None and not self._task.done():
            raise RuntimeError("rebalance loop already running")

        async def loop() -> None:
            while True:
                try:
                    if self.misplaced():
                        await self.run_until_converged()
                except (ClusterError, MembershipError):
                    pass  # transient (mid-churn); next round retries
                await self.clock.sleep(interval)

        self._task = asyncio.get_running_loop().create_task(loop())
        return self._task

    async def stop(self) -> None:
        task, self._task = self._task, None
        if task is not None and not task.done():
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
