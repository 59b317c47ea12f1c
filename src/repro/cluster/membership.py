"""Epoch-numbered cluster membership: node states, table, heartbeat monitor.

The membership table is the single authority on *who is in the cluster
and in what role*.  Every mutation bumps a monotonically increasing
**epoch**; routing decisions (placement, client retries, gateway extent
resolution) are always made "as of epoch E", and a client that loses a
race with a membership change re-resolves at the new epoch and retries
instead of failing (see ``ElasticArray._column_request``).

Node life cycle::

    join -> JOINING --mark_live--> LIVE --drain--> DRAINING --remove--> LEFT
                \\                    |                 |
                 \\--(heartbeat miss)-+-> DEAD <--------/
                                       |
                        mark_live (node came back) / remove -> LEFT

* ``JOINING`` -- announced, probed, not yet placement-eligible.
* ``LIVE`` -- placement-eligible and serving.
* ``DRAINING`` -- still serving (reads **and** strip writes) but no
  longer placement-eligible, so the rebalancer migrates its strips
  away; removal is gated on the drain completing.
* ``DEAD`` -- failed heartbeats; not eligible, not routable.  Strips it
  held are re-placed and rebuilt via the decode path.
* ``LEFT`` -- tombstone; kept so the epoch history stays explainable.

Placement eligibility is ``LIVE`` only; **serving** (routable for data)
is ``LIVE`` + ``DRAINING``.  The distinction is what makes drains
graceful: foreground traffic keeps flowing to a draining node while the
migrator empties it.

:class:`MembershipMonitor` is the heartbeat prober -- the elastic twin
of :class:`~repro.cluster.health.HealthMonitor`, reusing the same
one-shot-probe + consecutive-miss pattern and per-node circuit
breakers, but keyed by node id instead of column index and feeding
verdicts into the table (``mark_dead`` / auto-revive).
"""

from __future__ import annotations

import asyncio
import enum
from dataclasses import dataclass

from repro.cluster.client import ClusterError, NodeClient, RetryPolicy, cached_client
from repro.cluster.health import CircuitBreaker

__all__ = [
    "NodeState",
    "NodeEntry",
    "MembershipError",
    "MembershipTable",
    "MembershipMonitor",
]


class NodeState(enum.Enum):
    JOINING = "joining"
    LIVE = "live"
    DRAINING = "draining"
    DEAD = "dead"
    LEFT = "left"


#: States whose strips are routable for foreground I/O.
SERVING_STATES = frozenset({NodeState.LIVE, NodeState.DRAINING})
#: States the heartbeat monitor keeps probing.
PROBED_STATES = frozenset(
    {NodeState.JOINING, NodeState.LIVE, NodeState.DRAINING, NodeState.DEAD}
)


@dataclass
class NodeEntry:
    node_id: str
    address: tuple[str, int]
    state: NodeState
    since_epoch: int

    def to_dict(self) -> dict:
        return {
            "id": self.node_id,
            "address": [self.address[0], self.address[1]],
            "state": self.state.value,
            "since_epoch": self.since_epoch,
        }


class MembershipError(ValueError):
    """Invalid membership transition or unknown node.

    A :class:`ValueError` subclass so the node's dispatch maps a bad
    remote mutation to a ``bad-request`` reply instead of crashing.
    """


class MembershipTable:
    """Epoch-numbered node table; every mutation bumps the epoch.

    ``metrics`` (an :class:`~repro.obs.metrics.MetricsRegistry`) is
    optional; when present the current epoch is exported as the
    ``membership_epoch`` gauge and per-state node counts as
    ``membership_nodes_<state>``.
    """

    def __init__(self, *, metrics=None) -> None:
        self.epoch = 0
        self.nodes: dict[str, NodeEntry] = {}
        self.metrics = metrics
        self._export()

    # -- mutations (each bumps the epoch) ------------------------------------

    def _bump(self) -> int:
        self.epoch += 1
        self._export()
        return self.epoch

    def bump(self) -> int:
        """Record an out-of-band routing-relevant change.

        Used by the rebalancer when it flips a stripe's holders (the
        node set is unchanged but routing is not), and by chaos tests
        to prove spurious epoch bumps are harmless.
        """
        return self._bump()

    def join(
        self, node_id: str, address: tuple[str, int], *, live: bool = False
    ) -> int:
        """Announce a node.  Re-joining a DEAD/LEFT id revives it.

        ``live=True`` skips JOINING and admits the node straight into
        the placement pool -- used at bootstrap and by deterministic
        tests; production joins land in JOINING until the heartbeat
        confirms the node answers.
        """
        entry = self.nodes.get(node_id)
        if entry is not None and entry.state in SERVING_STATES:
            raise MembershipError(f"node {node_id!r} already {entry.state.value}")
        state = NodeState.LIVE if live else NodeState.JOINING
        self.nodes[node_id] = NodeEntry(
            node_id, (address[0], int(address[1])), state, self.epoch + 1
        )
        return self._bump()

    def _transition(self, node_id: str, allowed: frozenset, to: NodeState) -> int:
        entry = self.nodes.get(node_id)
        if entry is None:
            raise MembershipError(f"unknown node {node_id!r}")
        if entry.state not in allowed:
            raise MembershipError(
                f"node {node_id!r}: cannot go {entry.state.value} -> {to.value}"
            )
        entry.state = to
        entry.since_epoch = self._bump()
        return entry.since_epoch

    def mark_live(self, node_id: str) -> int:
        """JOINING/DEAD/DRAINING -> LIVE (heartbeat OK / drain cancelled)."""
        return self._transition(
            node_id,
            frozenset({NodeState.JOINING, NodeState.DEAD, NodeState.DRAINING}),
            NodeState.LIVE,
        )

    def drain(self, node_id: str) -> int:
        """LIVE/JOINING -> DRAINING: keep serving, stop placing."""
        return self._transition(
            node_id,
            frozenset({NodeState.LIVE, NodeState.JOINING}),
            NodeState.DRAINING,
        )

    def mark_dead(self, node_id: str) -> int:
        """Heartbeat verdict: node stopped answering."""
        return self._transition(node_id, PROBED_STATES - {NodeState.DEAD}, NodeState.DEAD)

    def remove(self, node_id: str) -> int:
        """DRAINING/DEAD -> LEFT tombstone (drain finished / operator GC)."""
        return self._transition(
            node_id, frozenset({NodeState.DRAINING, NodeState.DEAD}), NodeState.LEFT
        )

    # -- views ---------------------------------------------------------------

    def state_of(self, node_id: str) -> NodeState:
        entry = self.nodes.get(node_id)
        if entry is None:
            raise MembershipError(f"unknown node {node_id!r}")
        return entry.state

    def address_of(self, node_id: str) -> tuple[str, int]:
        entry = self.nodes.get(node_id)
        if entry is None:
            raise MembershipError(f"unknown node {node_id!r}")
        return entry.address

    def placement_pool(self) -> tuple[str, ...]:
        """Sorted LIVE node ids -- the placement-eligible set."""
        return tuple(
            sorted(n for n, e in self.nodes.items() if e.state is NodeState.LIVE)
        )

    def serving(self) -> tuple[str, ...]:
        """Sorted node ids routable for data (LIVE + DRAINING)."""
        return tuple(
            sorted(n for n, e in self.nodes.items() if e.state in SERVING_STATES)
        )

    def probed(self) -> tuple[str, ...]:
        return tuple(
            sorted(n for n, e in self.nodes.items() if e.state in PROBED_STATES)
        )

    def counts(self) -> dict[str, int]:
        out = {state.value: 0 for state in NodeState}
        for entry in self.nodes.values():
            out[entry.state.value] += 1
        return out

    # -- wire form -----------------------------------------------------------

    def to_header(self) -> dict:
        """JSON-safe snapshot carried in ``membership`` verb replies."""
        return {
            "epoch": self.epoch,
            "nodes": [e.to_dict() for _, e in sorted(self.nodes.items())],
        }

    @classmethod
    def from_header(cls, header: dict, *, metrics=None) -> "MembershipTable":
        table = cls(metrics=metrics)
        for node in header.get("nodes", ()):
            addr = node["address"]
            table.nodes[node["id"]] = NodeEntry(
                node["id"],
                (addr[0], int(addr[1])),
                NodeState(node["state"]),
                int(node.get("since_epoch", 0)),
            )
        table.epoch = int(header.get("epoch", 0))
        table._export()
        return table

    def _export(self) -> None:
        if self.metrics is None:
            return
        self.metrics.gauge("membership_epoch").set(self.epoch)
        for state, count in self.counts().items():
            self.metrics.gauge(f"membership_nodes_{state}").set(count)

    def __repr__(self) -> str:
        counts = {k: v for k, v in self.counts().items() if v}
        return f"MembershipTable(epoch={self.epoch}, {counts})"


class MembershipMonitor:
    """Heartbeat prober for an :class:`~repro.cluster.elastic.ElasticArray`.

    Probes every non-LEFT node each round with a one-shot ping (the
    cadence is the retry loop, mirroring
    :class:`~repro.cluster.health.HealthMonitor`), maintains a
    :class:`CircuitBreaker` per node id on ``array.node_breakers``, and
    drives table transitions: ``miss_threshold`` consecutive misses
    mark a node DEAD; a successful probe promotes JOINING to LIVE and
    revives DEAD nodes.  ``on_change(epoch)`` fires after any table
    mutation so a rebalancer can wake up.
    """

    def __init__(
        self,
        array,
        *,
        interval: float = 1.0,
        miss_threshold: int = 3,
        probe_timeout: float = 0.5,
        failure_threshold: int = 3,
        reset_timeout: float = 5.0,
        min_open_interval: float = 0.0,
        on_change=None,
    ) -> None:
        self.array = array
        self.membership: MembershipTable = array.membership
        self.clock = array.clock
        self.interval = float(interval)
        self.miss_threshold = int(miss_threshold)
        self.probe_policy = RetryPolicy(attempts=1, timeout=float(probe_timeout))
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout = float(reset_timeout)
        self.min_open_interval = float(min_open_interval)
        self.on_change = on_change
        self.misses: dict[str, int] = {}
        self._probes: dict[str, NodeClient] = {}
        self._task: asyncio.Task | None = None

    def _breaker(self, node_id: str) -> CircuitBreaker:
        breakers = self.array.node_breakers
        if node_id not in breakers:
            breakers[node_id] = CircuitBreaker(
                self.clock,
                failure_threshold=self.failure_threshold,
                reset_timeout=self.reset_timeout,
                min_open_interval=self.min_open_interval,
                metrics=self.array.metrics,
            )
        return breakers[node_id]

    def _probe_client(self, node_id: str) -> NodeClient:
        # One per node, its connection kept open between rounds, and
        # rebuilt when the node comes back at a new address.
        array = self.array
        return cached_client(
            self._probes, node_id, self.membership.address_of(node_id),
            lambda address: NodeClient(
                address,
                policy=self.probe_policy,
                metrics=array.metrics,
                transport=array.transport,
                clock=array.clock,
                tracer=array.tracer,
            ),
        )

    async def probe_once(self) -> dict[str, bool]:
        """One heartbeat round; returns per-node liveness verdicts."""
        table = self.membership
        targets = table.probed()
        epoch_before = table.epoch
        for gone in sorted(self._probes.keys() - set(targets)):
            self._probes.pop(gone).close()

        async def probe(node_id: str) -> bool:
            try:
                await self._probe_client(node_id).request("ping")
            except ClusterError:
                return False
            return True

        alive = dict(
            zip(targets, await asyncio.gather(*(probe(n) for n in targets)))
        )
        for node_id, ok in alive.items():
            breaker = self._breaker(node_id)
            state = table.state_of(node_id)
            if ok:
                self.misses[node_id] = 0
                breaker.record_success()
                if state is NodeState.JOINING or state is NodeState.DEAD:
                    table.mark_live(node_id)
            else:
                self.misses[node_id] = self.misses.get(node_id, 0) + 1
                breaker.record_failure()
                self.array.metrics.counter("heartbeat_misses").inc()
                if (
                    self.misses[node_id] >= self.miss_threshold
                    and state is not NodeState.DEAD
                ):
                    table.mark_dead(node_id)
                    self.array.metrics.counter("nodes_dead").inc()
        if table.epoch != epoch_before and self.on_change is not None:
            self.on_change(table.epoch)
        return alive

    def start(self) -> asyncio.Task:
        if self._task is not None and not self._task.done():
            raise RuntimeError("membership loop already running")

        async def loop() -> None:
            while True:
                await self.probe_once()
                await self.clock.sleep(self.interval)

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
        for probe in self._probes.values():
            probe.close()
        self._probes.clear()

    def status(self) -> dict:
        """Operator view: per-node state, misses, breaker."""
        table = self.membership
        return {
            "epoch": table.epoch,
            "nodes": [
                {
                    **entry.to_dict(),
                    "misses": self.misses.get(node_id, 0),
                    "breaker": self._breaker(node_id).state.value
                    if node_id in self.array.node_breakers
                    else "closed",
                }
                for node_id, entry in sorted(table.nodes.items())
            ],
        }
