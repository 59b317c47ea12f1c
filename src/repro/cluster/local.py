"""Spin up a whole cluster in one process (tests, examples, demos).

:class:`LocalCluster` owns :class:`~repro.cluster.node.StripNode`
servers on loopback ephemeral ports plus the lifecycle verbs the
failure drills need: stop a node (simulating a machine loss), restart
it, start a blank replacement for a column (the rebuild target), add a
node to the pool, and tear everything down.  Being in-process, tests
can also reach into ``cluster.nodes[i].faults`` / ``.disk`` directly
instead of going through the ``fault`` verb.
"""

from __future__ import annotations

import asyncio
import random

from repro.cluster.client import ClusterArray, RetryPolicy
from repro.cluster.membership import MembershipTable
from repro.cluster.node import StripNode
from repro.codes.base import RAID6Code
from repro.obs.tracing import Tracer
from repro.sim.clock import Clock
from repro.sim.transport import Transport

__all__ = ["LocalCluster"]


class LocalCluster:
    """Loopback strip nodes for one code geometry; node ids are ints.

    Without ``n_nodes`` the cluster is ``k + 2`` nodes, node *c* serving
    column *c*: arrays built via :meth:`array` get the node addresses,
    hence a static column-ordered table each.  With ``n_nodes >= k + 2``
    it is a pool whose shared :attr:`membership` table is the routing
    authority: arrays place stripes over it by rendezvous, and the
    drills mutate it (:meth:`add_node`, :meth:`restart_node`).

    ``transport``/``clock`` default to real sockets and the event-loop
    clock; pass a :class:`~repro.sim.transport.MemoryTransport` and
    :class:`~repro.sim.clock.VirtualClock` to run the whole cluster as
    a deterministic in-process simulation.  An optional
    :class:`~repro.obs.tracing.Tracer` is threaded into every node (and
    into arrays built via :meth:`array`), so one trace shows client
    RPCs and node dispatches interleaved on one timeline.
    """

    def __init__(
        self,
        code: RAID6Code,
        n_stripes: int,
        n_nodes: int | None = None,
        *,
        host: str = "127.0.0.1",
        transport: Transport | None = None,
        clock: Clock | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.code = code
        self.n_stripes = int(n_stripes)
        self.host = host
        self.transport = transport
        self.clock = clock
        self.tracer = tracer
        #: the pool's shared table; None for a column-ordered cluster
        self.membership = None if n_nodes is None else MembershipTable()
        count = code.n_cols if n_nodes is None else int(n_nodes)
        if count < code.n_cols:
            raise ValueError(f"need at least {code.n_cols} nodes (k+2), got {count}")
        #: node ``i`` is ``nodes[i]``
        self.nodes: list[StripNode] = [self._make_node(i) for i in range(count)]
        #: replacement nodes started via :meth:`start_replacement`
        self.replacements: dict[int, StripNode] = {}
        #: arrays built by :meth:`array`; :meth:`stop` closes their clients
        self._arrays: list[ClusterArray] = []

    def _make_node(self, node_id: int) -> StripNode:
        return StripNode(
            node_id, self.n_stripes, self.code.rows * (self.code.element_size // 8),
            host=self.host, transport=self.transport, clock=self.clock,
            tracer=self.tracer,
        )

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> list[tuple[str, int]]:
        """Start every node (a pool admits each LIVE); returns addresses."""
        await asyncio.gather(*(n.start() for n in self.nodes))
        if self.membership is not None:
            for node_id, node in enumerate(self.nodes):
                self.membership.join(node_id, node.address, live=True)
        return self.addresses

    async def stop(self) -> None:
        for arr in self._arrays:
            arr.close()
        live = [n for n in [*self.nodes, *self.replacements.values()] if n.running]
        await asyncio.gather(*(n.stop() for n in live))

    async def __aenter__(self) -> "LocalCluster":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    @property
    def addresses(self) -> list[tuple[str, int]]:
        return [n.address for n in self.nodes]

    # -- failure drills ----------------------------------------------------

    async def stop_node(self, node_id: int) -> None:
        """Take one node offline (machine loss); a pool's table learns
        of it from the heartbeat monitor (or an explicit ``mark_dead``)."""
        await self.nodes[node_id].stop()

    async def restart_node(self, node_id: int) -> tuple[str, int]:
        """Bring a stopped node back (reboot after a crash).

        Durable state -- disk contents, checksum sidecars, ``xor``
        write tokens -- survives in the :class:`StripNode` object; only
        the listening socket was lost.  Returns the (new) address, which a
        pool's table records under the same id and state.
        """
        address = await self.nodes[node_id].start()
        if self.membership is not None:
            self.membership.nodes[node_id].address = (address[0], int(address[1]))
        return address

    async def add_node(self, *, live: bool = True) -> int:
        """Start one blank node; returns its id.

        A pool joins it to its table -- LIVE, or with ``live=False``
        JOINING, for heartbeat-promotion drills.  A column-ordered
        cluster has no shared table: join the node to an array's own
        ``membership`` to use it there.
        """
        node_id = len(self.nodes)
        node = self._make_node(node_id)
        self.nodes.append(node)
        await node.start()
        if self.membership is not None:
            self.membership.join(node_id, node.address, live=live)
        return node_id

    async def start_replacement(self, node_id: int) -> tuple[str, int]:
        """Start a blank replacement for node ``node_id`` (in a
        column-ordered cluster, the node of that column); returns its
        address.

        The caller hands the address to the rebuild scheduler; once the
        rebuild repoints the array, :meth:`promote_replacement` updates
        :attr:`nodes` so later drills target the live replacement.
        """
        node = self._make_node(node_id)
        await node.start()
        self.replacements[node_id] = node
        return node.address

    def promote_replacement(self, node_id: int) -> None:
        """Make the replacement the node of record for ``node_id``."""
        self.nodes[node_id] = self.replacements.pop(node_id)

    # -- convenience -------------------------------------------------------

    def auto_healer(self, array: ClusterArray, **kwargs) -> "HealthMonitor":
        """A :class:`~repro.cluster.health.HealthMonitor` wired for self-heal.

        Spares come from :meth:`start_replacement`; after each rebuild
        the replacement is promoted to the dead node's id.
        Extra ``kwargs`` pass through to the monitor (thresholds,
        intervals, breaker tuning).
        """
        from repro.cluster.health import HealthMonitor

        return HealthMonitor(
            array,
            spare_provider=self.start_replacement,
            on_rebuilt=self.promote_replacement,
            **kwargs,
        )

    def rebalancer(self, array: ClusterArray, **kwargs):
        """A :class:`~repro.cluster.rebalance.Rebalancer` for ``array``."""
        from repro.cluster.rebalance import Rebalancer

        return Rebalancer(array, **kwargs)

    def array(
        self,
        *,
        policy: RetryPolicy | None = None,
        rng: random.Random | None = None,
        hedge_after: float | None = None,
    ) -> ClusterArray:
        """A :class:`ClusterArray` over this cluster: column-ordered over
        the current addresses, or placed by rendezvous over the pool."""
        arr = ClusterArray(
            self.code,
            self.addresses[: self.code.n_cols]
            if self.membership is None else self.membership,
            self.n_stripes, policy=policy, transport=self.transport,
            clock=self.clock, rng=rng, tracer=self.tracer, hedge_after=hedge_after,
        )
        self._arrays.append(arr)
        return arr
