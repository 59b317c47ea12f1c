"""repro.cluster -- the distributed stripe store.

The paper's encode/decode kernels, lifted from a single-process
simulator to separate failure domains: each of the ``k + 2`` columns
lives on its own asyncio TCP :class:`~repro.cluster.node.StripNode`,
and a :class:`~repro.cluster.client.ClusterArray` client stripes
writes across them, serves degraded reads by decoding survivor strips
(the optimal Algorithm 4 path for Liberation codes), and rebuilds lost
columns in the background via
:class:`~repro.cluster.rebuild.RebuildScheduler`.

Modules:

* :mod:`repro.cluster.protocol` -- length-prefixed CRC-32 framing;
* :mod:`repro.cluster.node` -- the per-column strip server;
* :mod:`repro.cluster.client` -- retrying RPC + the striped array;
* :mod:`repro.cluster.rebuild` -- background batch rebuild;
* :mod:`repro.cluster.scrub` -- distributed scrub & repair (the
  paper's single-column locator, applied over the wire);
* :mod:`repro.cluster.health` -- heartbeats, circuit breakers and
  automatic fail-to-rebuilt healing;
* :mod:`repro.cluster.txn` -- atomic stripe updates via two-phase
  commit (the distributed write-hole fix);
* :mod:`repro.cluster.membership` -- epoch-numbered node states
  (join/live/drain/dead) plus the heartbeat monitor that drives them;
* :mod:`repro.cluster.placement` -- deterministic rendezvous placement
  of stripes over the live pool (minimal movement under churn);
* :mod:`repro.cluster.elastic` -- the placement-routed
  :class:`~repro.cluster.elastic.ElasticArray` with epoch-bump retry;
* :mod:`repro.cluster.rebalance` -- throttled, crash-safe stripe
  migration converging routing onto placement (drains, heals, joins);
* :mod:`repro.cluster.local` -- in-process clusters for tests and
  examples (fixed ``k + 2`` and elastic pools).
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
from repro.cluster.elastic import ElasticArray
from repro.cluster.health import BreakerState, CircuitBreaker, HealthMonitor
from repro.cluster.local import ElasticLocalCluster, LocalCluster
from repro.cluster.membership import (
    MembershipError,
    MembershipMonitor,
    MembershipTable,
    NodeState,
)
from repro.cluster.node import NodeCrashPlan, NodeCrashed, StripNode
from repro.cluster.placement import PlacementError, PlacementMap, place_stripe
from repro.cluster.rebalance import RebalanceError, Rebalancer, TokenBucket
from repro.cluster.protocol import (
    FrameChecksumError,
    ProtocolError,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.cluster.rebuild import RebuildScheduler
from repro.cluster.scrub import ClusterScrubReport, ClusterScrubber
from repro.cluster.txn import ClientCrash, TwoPhaseWriter, TxnCrashPoint
from repro.obs.metrics import Counter, Histogram, MetricsRegistry

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "ClientCrash",
    "ClusterArray",
    "ClusterDegradedError",
    "ClusterError",
    "ClusterScrubReport",
    "ClusterScrubber",
    "Counter",
    "ElasticArray",
    "ElasticLocalCluster",
    "FrameChecksumError",
    "HealthMonitor",
    "Histogram",
    "LocalCluster",
    "MembershipError",
    "MembershipMonitor",
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
    "TwoPhaseWriter",
    "TxnCrashPoint",
    "place_stripe",
    "encode_frame",
    "read_frame",
    "send_verb",
    "write_frame",
]
