"""repro.cluster -- the distributed stripe store.

The paper's encode/decode kernels, lifted from a single-process
simulator to separate failure domains: each strip of a stripe lives on
its own asyncio TCP :class:`~repro.cluster.node.StripNode`, and one
:class:`~repro.cluster.client.ClusterArray` client stripes writes
across them -- column *c* on node *c* of ``k + 2``, or by rendezvous
placement over a membership table -- serves degraded reads by decoding
survivor strips (the optimal Algorithm 4 path for Liberation codes),
and rebuilds lost columns in the background via
:class:`~repro.cluster.rebuild.RebuildScheduler`.

Modules:

* :mod:`repro.cluster.protocol` -- length-prefixed CRC-32 framing;
* :mod:`repro.cluster.node` -- the per-column strip server;
* :mod:`repro.cluster.client` -- retrying RPC + the striped array
  (routing, epoch-bump retry, stripe locks);
* :mod:`repro.cluster.rebuild` -- background batch rebuild;
* :mod:`repro.cluster.scrub` -- distributed scrub & repair (the
  paper's single-column locator, applied over the wire);
* :mod:`repro.cluster.health` -- heartbeats, circuit breakers,
  membership verdicts and automatic fail-to-rebuilt healing;
* :mod:`repro.cluster.membership` -- the epoch-numbered node table
  (join/live/drain/dead);
* :mod:`repro.cluster.placement` -- column order, and deterministic
  rendezvous placement of stripes over the live pool (minimal movement
  under churn);
* :mod:`repro.cluster.rebalance` -- throttled, crash-safe stripe
  migration converging routing onto placement (drains, heals, joins);
* :mod:`repro.cluster.local` -- in-process clusters for tests and
  examples (``k + 2`` column-ordered, or a pool).
"""

from repro.cluster.client import (
    ClusterArray,
    ClusterDegradedError,
    ClusterError,
    NodeClient,
    NodeUnavailableError,
    RemoteDiskError,
    RetryPolicy,
    send_verb,
)
from repro.cluster.health import BreakerState, CircuitBreaker, HealthMonitor
from repro.cluster.local import LocalCluster
from repro.cluster.membership import MembershipError, MembershipTable, NodeState
from repro.cluster.node import NodeCrashPlan, NodeCrashed, StripNode
from repro.cluster.placement import (
    ColumnOrder,
    PlacementError,
    PlacementMap,
    place_stripe,
)
from repro.cluster.rebalance import (
    ClientCrash,
    ClientCrashPoint,
    RebalanceError,
    Rebalancer,
    TokenBucket,
)
from repro.cluster.protocol import (
    FrameChecksumError,
    ProtocolError,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.cluster.rebuild import RebuildScheduler
from repro.cluster.scrub import ClusterScrubReport, ClusterScrubber
from repro.obs.metrics import Counter, Histogram, MetricsRegistry

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "ClientCrash",
    "ClientCrashPoint",
    "ClusterArray",
    "ClusterDegradedError",
    "ClusterError",
    "ClusterScrubReport",
    "ClusterScrubber",
    "ColumnOrder",
    "Counter",
    "FrameChecksumError",
    "HealthMonitor",
    "Histogram",
    "LocalCluster",
    "MembershipError",
    "MembershipTable",
    "MetricsRegistry",
    "NodeClient",
    "NodeCrashPlan",
    "NodeCrashed",
    "NodeState",
    "NodeUnavailableError",
    "PlacementError",
    "PlacementMap",
    "ProtocolError",
    "RebalanceError",
    "Rebalancer",
    "RebuildScheduler",
    "RemoteDiskError",
    "RetryPolicy",
    "StripNode",
    "TokenBucket",
    "place_stripe",
    "encode_frame",
    "read_frame",
    "send_verb",
    "write_frame",
]
