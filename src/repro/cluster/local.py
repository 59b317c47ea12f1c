"""Spin up a whole cluster in one process (tests, examples, demos).

:class:`LocalCluster` owns ``k + 2`` :class:`~repro.cluster.node.StripNode`
servers on loopback ephemeral ports -- one per column -- plus the
lifecycle verbs the failure drills need: stop a node (simulating a
machine loss), start a blank replacement for a column (the rebuild
target), and tear everything down.  Being in-process, tests can also
reach into ``cluster.nodes[c].faults`` / ``.disk`` directly instead of
going through the ``fault`` verb.
"""

from __future__ import annotations

import asyncio
import random

from repro.cluster.client import ClusterArray, RetryPolicy
from repro.cluster.node import StripNode
from repro.codes.base import RAID6Code
from repro.obs.tracing import Tracer
from repro.sim.clock import Clock
from repro.sim.transport import Transport

__all__ = ["LocalCluster", "ElasticLocalCluster"]


class LocalCluster:
    """``k + 2`` loopback strip nodes for one code geometry.

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
        strip_words = code.rows * (code.element_size // 8)
        self.nodes: list[StripNode] = [
            StripNode(col, n_stripes, strip_words, host=host,
                      transport=transport, clock=clock, tracer=tracer)
            for col in range(code.n_cols)
        ]
        #: replacement nodes started via :meth:`start_replacement`
        self.replacements: dict[int, StripNode] = {}
        #: arrays built by :meth:`array`; :meth:`stop` closes their clients
        self._arrays: list[ClusterArray] = []

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> list[tuple[str, int]]:
        await asyncio.gather(*(n.start() for n in self.nodes))
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

    async def stop_node(self, column: int) -> None:
        """Take one column's node offline (machine loss)."""
        await self.nodes[column].stop()

    async def restart_node(self, column: int) -> tuple[str, int]:
        """Bring a stopped node back (reboot after a crash).

        Durable state -- disk contents, intent log, checksum sidecars
        -- survives in the :class:`StripNode` object; only the
        listening socket was lost.  Returns the (new) address.
        """
        return await self.nodes[column].start()

    async def start_replacement(self, column: int) -> tuple[str, int]:
        """Start a blank node for ``column``; returns its address.

        The caller hands the address to the rebuild scheduler; once the
        rebuild repoints the array, :attr:`nodes` is updated so later
        drills target the live replacement.
        """
        node = StripNode(
            column, self.n_stripes, self.nodes[column].disk.strip_words,
            host=self.host, transport=self.transport, clock=self.clock,
            tracer=self.tracer,
        )
        await node.start()
        self.replacements[column] = node
        return node.address

    def promote_replacement(self, column: int) -> None:
        """Make the replacement the column's node of record."""
        self.nodes[column] = self.replacements.pop(column)

    # -- convenience -------------------------------------------------------

    def auto_healer(self, array: ClusterArray, **kwargs) -> "HealthMonitor":
        """A :class:`~repro.cluster.health.HealthMonitor` wired for self-heal.

        Spares come from :meth:`start_replacement`; after each rebuild
        the replacement is promoted to the column's node of record.
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

    def array(
        self,
        *,
        policy: RetryPolicy | None = None,
        rng: random.Random | None = None,
        hedge_after: float | None = None,
    ) -> ClusterArray:
        """A :class:`ClusterArray` wired to this cluster's nodes."""
        arr = ClusterArray(
            self.code, self.addresses, self.n_stripes, policy=policy,
            transport=self.transport, clock=self.clock, rng=rng,
            tracer=self.tracer, hedge_after=hedge_after,
        )
        self._arrays.append(arr)
        return arr


class ElasticLocalCluster:
    """A pool of ``n_nodes >= k + 2`` loopback nodes plus a membership table.

    The elastic twin of :class:`LocalCluster`: nodes are identities
    (``"n0"``, ``"n1"``, ...) rather than columns, the shared
    :class:`~repro.cluster.membership.MembershipTable` is the routing
    authority, and churn drills mutate the pool -- :meth:`add_node`,
    :meth:`stop_node`, :meth:`restart_node` -- instead of swapping a
    fixed column's machine.  Arrays built via :meth:`array` route every
    (stripe, column) through placement over this table.
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
        from repro.cluster.membership import MembershipTable

        self.code = code
        self.n_stripes = int(n_stripes)
        self.host = host
        self.transport = transport
        self.clock = clock
        self.tracer = tracer
        self.membership = MembershipTable()
        self.nodes: dict[str, StripNode] = {}
        #: arrays built by :meth:`array`; :meth:`stop` closes their clients
        self._arrays: list = []
        self._next_id = 0
        self._strip_words = code.rows * (code.element_size // 8)
        n_nodes = code.n_cols if n_nodes is None else int(n_nodes)
        if n_nodes < code.n_cols:
            raise ValueError(
                f"need at least {code.n_cols} nodes (k+2), got {n_nodes}"
            )
        for _ in range(n_nodes):
            self._new_node()

    def _new_node(self) -> str:
        node_id = f"n{self._next_id}"
        self._next_id += 1
        self.nodes[node_id] = StripNode(
            self._next_id - 1, self.n_stripes, self._strip_words, host=self.host,
            transport=self.transport, clock=self.clock, tracer=self.tracer,
        )
        return node_id

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> dict[str, tuple[str, int]]:
        """Start every node and admit it LIVE; returns id -> address."""
        await asyncio.gather(*(n.start() for n in self.nodes.values()))
        for node_id in sorted(self.nodes):
            self.membership.join(node_id, self.nodes[node_id].address, live=True)
        return {nid: n.address for nid, n in self.nodes.items()}

    async def stop(self) -> None:
        for arr in self._arrays:
            arr.close()
        live = [n for n in self.nodes.values() if n.running]
        await asyncio.gather(*(n.stop() for n in live))

    async def __aenter__(self) -> "ElasticLocalCluster":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- churn drills ------------------------------------------------------

    async def add_node(self, *, live: bool = True) -> str:
        """Start one blank node and join it; returns its id.

        ``live=False`` parks it in JOINING for heartbeat-promotion
        drills; the default admits it straight into the placement pool.
        """
        node_id = self._new_node()
        await self.nodes[node_id].start()
        self.membership.join(node_id, self.nodes[node_id].address, live=live)
        return node_id

    async def stop_node(self, node_id: str) -> None:
        """Take one node offline (machine loss); membership learns via
        the heartbeat monitor (or an explicit ``mark_dead``)."""
        await self.nodes[node_id].stop()

    async def restart_node(self, node_id: str) -> tuple[str, int]:
        """Reboot a stopped node; durable state survives in the object.

        The fresh ephemeral port is recorded in the table (same id, new
        address) without changing the node's state.
        """
        address = await self.nodes[node_id].start()
        entry = self.membership.nodes.get(node_id)
        if entry is not None:
            entry.address = (address[0], int(address[1]))
        return address

    # -- convenience -------------------------------------------------------

    def array(
        self,
        *,
        policy: RetryPolicy | None = None,
        rng: random.Random | None = None,
        hedge_after: float | None = None,
    ):
        """An :class:`~repro.cluster.elastic.ElasticArray` over this pool."""
        from repro.cluster.elastic import ElasticArray

        arr = ElasticArray(
            self.code, self.membership, self.n_stripes, policy=policy,
            transport=self.transport, clock=self.clock, rng=rng,
            tracer=self.tracer, hedge_after=hedge_after,
        )
        self._arrays.append(arr)
        return arr

    def monitor(self, array, **kwargs):
        """A :class:`~repro.cluster.membership.MembershipMonitor` for ``array``."""
        from repro.cluster.membership import MembershipMonitor

        return MembershipMonitor(array, **kwargs)

    def rebalancer(self, array, **kwargs):
        """A :class:`~repro.cluster.rebalance.Rebalancer` for ``array``."""
        from repro.cluster.rebalance import Rebalancer

        return Rebalancer(array, **kwargs)
