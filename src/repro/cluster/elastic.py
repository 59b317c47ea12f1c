"""The elastic array: placement-routed striping over a changing node pool.

:class:`ElasticArray` is :class:`~repro.cluster.client.ClusterArray`
with the fixed "column *c* lives on node *c*" wiring replaced by two
levels of indirection:

* :attr:`locations` -- the authoritative *current* holder map
  (``stripe -> tuple of node ids``).  All foreground I/O routes through
  it, so a stripe's home changes exactly when the rebalancer flips its
  entry -- the atomic commit point of a migration.
* :class:`~repro.cluster.placement.PlacementMap` -- where each stripe
  *should* live given the current membership epoch.  The rebalancer's
  job is to converge ``locations`` toward placement; the gap between
  the two is the cluster's "misplaced" backlog.

Splitting *is* from *ought* is what makes churn survivable: a node
join/leave/drain changes placement instantly (and bumps the epoch) but
changes routing only as stripes actually migrate, so clients never
chase a target that has no data yet.

**Epoch-bump retry**: a data RPC that fails with
:class:`~repro.cluster.client.NodeUnavailableError` *and* observes the
membership epoch moved since the request was resolved re-resolves the
holder and retries once (``epoch_retries`` counter).  A client racing a
migration or a drain therefore sees one slow request, not an error.

Per-stripe asyncio locks serialize foreground stripe writes against
migrations of the same stripe (see :meth:`stripe_lock`); a batched
write takes the locks of all its stripes, in ascending order.  Reads
stay lock-free because both copies are valid until the source is
released.

A batch of stripes is grouped per column by each stripe's holder, so
one RPC goes to every node serving the batch; an epoch-bump retry
regroups the failed stripes by their new holders.
"""

from __future__ import annotations

import asyncio
import random

import numpy as np

from repro.cluster.client import (
    ClusterArray,
    NodeClient,
    NodeUnavailableError,
    RetryPolicy,
    acquire_all,
    cached_client,
)
from repro.cluster.membership import MembershipTable
from repro.cluster.placement import PlacementMap
from repro.codes.base import RAID6Code
from repro.obs.tracing import Tracer
from repro.sim.clock import Clock
from repro.sim.transport import Transport

__all__ = ["ElasticArray"]


class ElasticArray(ClusterArray):
    """A RAID-6 array striped over an epoch-numbered elastic node pool."""

    def __init__(
        self,
        code: RAID6Code,
        membership: MembershipTable,
        n_stripes: int,
        *,
        policy: RetryPolicy | None = None,
        transport: Transport | None = None,
        clock: Clock | None = None,
        rng: random.Random | None = None,
        tracer: Tracer | None = None,
        hedge_after: float | None = None,
    ) -> None:
        super().__init__(
            code, None, n_stripes, policy=policy, transport=transport,
            clock=clock, rng=rng, tracer=tracer, hedge_after=hedge_after,
        )
        self.membership = membership
        if membership.metrics is None:
            membership.metrics = self.metrics
            membership._export()
        self.placement = PlacementMap(membership, code.n_cols)
        #: authoritative current holders (stripe -> node ids per column);
        #: flipped atomically by the rebalancer after a verified migration
        self.locations: dict[int, tuple[str, ...]] = {}
        #: per-node circuit breakers, installed/fed by
        #: :class:`~repro.cluster.membership.MembershipMonitor`
        self.node_breakers: dict = {}
        self._node_clients: dict[str, NodeClient] = {}
        self._stripe_locks: dict[int, asyncio.Lock] = {}
        #: stripes with a migration in flight (set by the rebalancer);
        #: readers of such a stripe wait for the flip instead of racing
        #: the window where a target's disk slot is being overwritten
        self.migrating: set[int] = set()

    # -- routing -------------------------------------------------------------

    def holders(self, stripe: int) -> tuple[str, ...]:
        """Current holder ids for ``stripe``, pinned on first touch.

        A stripe's first resolution pins it to the placement of that
        moment; afterwards only a rebalancer flip moves it, so routing
        never silently follows placement to a node that holds nothing.
        """
        locs = self.locations.get(stripe)
        if locs is None:
            locs = self.placement.nodes_for(stripe)
            self.locations[stripe] = locs
        return locs

    def client_for_node(self, node_id: str) -> NodeClient:
        """Cached client for one node, rebuilt if its address changed."""
        return cached_client(
            self._node_clients, node_id, self.membership.address_of(node_id),
            self._make_client,
        )

    def close(self) -> None:
        for client in self._node_clients.values():
            client.close()

    def _client_for(self, column: int, stripe: int | None) -> NodeClient:
        if stripe is None:
            raise RuntimeError(
                "elastic routing needs the stripe; pass stripe= to "
                "_column_request"
            )
        return self.client_for_node(self.holders(stripe)[column])

    def _breaker_for(self, column: int, stripe: int | None):
        if stripe is None:
            return None
        return self.node_breakers.get(self.holders(stripe)[column])

    async def _column_request(
        self,
        column: int,
        verb: str,
        header: dict | None = None,
        payload: bytes = b"",
        *,
        stripe: int | None = None,
    ) -> tuple[dict, bytes]:
        epoch = self.membership.epoch
        try:
            return await super()._column_request(
                column, verb, header, payload, stripe=stripe
            )
        except NodeUnavailableError:
            if stripe is None or self.membership.epoch == epoch:
                raise
            # The cluster moved under us (join/leave/drain/migration
            # flip): re-resolve the holder at the new epoch and spend
            # one retry before surfacing the failure.
            self.metrics.counter("epoch_retries").inc()
            return await super()._column_request(
                column, verb, header, payload, stripe=stripe
            )

    async def _fan_out(
        self, verb: str, plan: list[tuple[int, list[int]]], payload_for=None
    ) -> list[tuple[int, list[int], object]]:
        epoch = self.membership.epoch
        done = await super()._fan_out(verb, plan, payload_for)
        failed: dict[int, list[int]] = {}
        for column, batch, outcome in done:
            if isinstance(outcome, NodeUnavailableError):
                failed.setdefault(column, []).extend(batch)
        if not failed or self.membership.epoch == epoch:
            return done
        # As for one request: regroup the failed stripes by their
        # holders at the new epoch and spend one retry on them.
        self.metrics.counter("epoch_retries").inc()
        kept = [d for d in done if not isinstance(d[2], NodeUnavailableError)]
        return kept + await super()._fan_out(verb, list(failed.items()), payload_for)

    # -- write/migrate serialization -----------------------------------------

    def stripe_lock(self, stripe: int) -> asyncio.Lock:
        """Per-stripe lock shared by foreground writes and migrations."""
        lock = self._stripe_locks.get(stripe)
        if lock is None:
            lock = self._stripe_locks[stripe] = asyncio.Lock()
        return lock

    def stripe_locks(self, stripes: list[int]):
        """The locks of ``stripes``, held together and taken in ascending
        order -- the order of every batch, so two batches sharing
        stripes never deadlock."""
        return acquire_all(self.stripe_lock(s) for s in sorted(set(stripes)))

    async def _write_stripes(
        self, stripes: list[int], bufs: list[np.ndarray], *,
        columns: list[int] | None = None,
    ) -> dict[int, list[int]]:
        async with self.stripe_locks(stripes):
            return await super()._write_stripes(stripes, bufs, columns=columns)

    async def _read_stripes(self, stripes: list[int]) -> list[np.ndarray]:
        # A stripe whose migration is in its hazard window is read only
        # after the routing flip, not in a half-moved state.
        while True:
            moving = next((s for s in stripes if s in self.migrating), None)
            if moving is None:
                break
            async with self.stripe_lock(moving):
                pass
        return await super()._read_stripes(stripes)

    # -- health / metrics (node-keyed: columns are per-stripe here) ----------

    async def ping(self) -> dict[str, bool]:  # type: ignore[override]
        """Liveness of every probed node, keyed by node id."""
        ids = self.membership.probed()

        async def probe(node_id: str) -> bool:
            try:
                await self.client_for_node(node_id).request("ping")
            except Exception:
                return False
            return True

        alive = await asyncio.gather(*(probe(n) for n in ids))
        return dict(zip(ids, alive))

    async def node_stats(self) -> dict[str, dict | None]:  # type: ignore[override]
        """Each serving node's ``stats`` reply header, keyed by node id."""
        ids = self.membership.serving()

        async def fetch(node_id: str) -> dict | None:
            try:
                reply, _ = await self.client_for_node(node_id).request("stats")
            except Exception:
                return None
            return reply

        stats = await asyncio.gather(*(fetch(n) for n in ids))
        return dict(zip(ids, stats))

    async def stats(self) -> dict:
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
