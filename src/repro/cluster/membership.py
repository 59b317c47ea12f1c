"""Epoch-numbered cluster membership: node states and the node table.

The membership table is the single authority on *who is in the cluster
and in what role*.  Every mutation bumps a monotonically increasing
**epoch**; routing decisions (placement, client retries, gateway extent
resolution) are always made "as of epoch E", and a client that loses a
race with a membership change re-resolves at the new epoch and retries
instead of failing (see ``ClusterArray._fan_out``).

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
* ``DEAD`` -- failed heartbeats; not eligible.  Under rendezvous
  placement the rebalancer re-places its strips through the decode
  path; a column-ordered array rebuilds its column onto a replacement
  (:meth:`MembershipTable.relocate` then revives the id).
* ``LEFT`` -- tombstone; kept so the epoch history stays explainable.

Placement eligibility is ``LIVE`` only; **serving** (routable for data)
is ``LIVE`` + ``DRAINING``.  The distinction is what makes drains
graceful: foreground traffic keeps flowing to a draining node while the
migrator empties it.

:class:`~repro.cluster.health.HealthMonitor` renders the heartbeat
verdicts (``mark_dead``, ``mark_live``) into the table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "NodeState",
    "NodeEntry",
    "MembershipError",
    "MembershipTable",
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


#: A node's identity: the column number in a column-ordered table, an
#: int in :class:`~repro.cluster.local.LocalCluster` pools, any string
#: in an operator-managed table.
NodeId = int | str


@dataclass
class NodeEntry:
    node_id: NodeId
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
        self.nodes: dict[NodeId, NodeEntry] = {}
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
        self, node_id: NodeId, address: tuple[str, int], *, live: bool = False
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

    def _transition(self, node_id: NodeId, allowed: frozenset, to: NodeState) -> int:
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

    def mark_live(self, node_id: NodeId) -> int:
        """JOINING/DEAD/DRAINING -> LIVE (heartbeat OK / drain cancelled)."""
        return self._transition(
            node_id,
            frozenset({NodeState.JOINING, NodeState.DEAD, NodeState.DRAINING}),
            NodeState.LIVE,
        )

    def drain(self, node_id: NodeId) -> int:
        """LIVE/JOINING -> DRAINING: keep serving, stop placing."""
        return self._transition(
            node_id,
            frozenset({NodeState.LIVE, NodeState.JOINING}),
            NodeState.DRAINING,
        )

    def mark_dead(self, node_id: NodeId) -> int:
        """Heartbeat verdict: node stopped answering."""
        return self._transition(node_id, PROBED_STATES - {NodeState.DEAD}, NodeState.DEAD)

    def remove(self, node_id: NodeId) -> int:
        """DRAINING/DEAD -> LEFT tombstone (drain finished / operator GC)."""
        return self._transition(
            node_id, frozenset({NodeState.DRAINING, NodeState.DEAD}), NodeState.LEFT
        )

    def relocate(self, node_id: NodeId, address: tuple[str, int]) -> int:
        """Point ``node_id`` at a replacement's address.

        The replacement holds the node's strips (a rebuild wrote them),
        so a DEAD node comes back LIVE.
        """
        entry = self.nodes.get(node_id)
        if entry is None:
            raise MembershipError(f"unknown node {node_id!r}")
        entry.address = (address[0], int(address[1]))
        if entry.state is NodeState.DEAD:
            entry.state = NodeState.LIVE
        entry.since_epoch = self._bump()
        return entry.since_epoch

    # -- views ---------------------------------------------------------------

    def state_of(self, node_id: NodeId) -> NodeState:
        entry = self.nodes.get(node_id)
        if entry is None:
            raise MembershipError(f"unknown node {node_id!r}")
        return entry.state

    def address_of(self, node_id: NodeId) -> tuple[str, int]:
        entry = self.nodes.get(node_id)
        if entry is None:
            raise MembershipError(f"unknown node {node_id!r}")
        return entry.address

    def placement_pool(self) -> tuple[NodeId, ...]:
        """Sorted LIVE node ids -- the placement-eligible set."""
        return tuple(
            sorted(n for n, e in self.nodes.items() if e.state is NodeState.LIVE)
        )

    def serving(self) -> tuple[NodeId, ...]:
        """Sorted node ids routable for data (LIVE + DRAINING)."""
        return tuple(
            sorted(n for n, e in self.nodes.items() if e.state in SERVING_STATES)
        )

    def probed(self) -> tuple[NodeId, ...]:
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
