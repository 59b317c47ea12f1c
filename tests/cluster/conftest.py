"""Shared helpers for the cluster test suite.

Tests drive asyncio directly (``asyncio.run`` per test) so the suite
has no plugin dependency.  Functional drills run on the simulation
seam (:func:`sim_cluster`: in-memory transport + virtual clock), so
timeouts and backoff consume virtual seconds only and every run is
deterministic; the handful of tests that exercise real loopback
sockets use :func:`liberation_cluster` and carry ``@pytest.mark.slow``.
"""

import numpy as np
import pytest

from repro.cluster import LocalCluster, RetryPolicy
from repro.cluster.client import LandedStrips
from repro.codes import make_code
from repro.sim import MemoryTransport, VirtualClock

#: Snappy timeouts: on the virtual clock they cost nothing; on real
#: loopback the worst case per lost strip is attempts * timeout.
FAST_POLICY = RetryPolicy(attempts=2, timeout=0.5, backoff=0.01, max_backoff=0.02)


def liberation_cluster(k=3, p=5, element_size=64, n_stripes=6):
    """A small Liberation-optimal cluster on real sockets (not started)."""
    code = make_code("liberation-optimal", k, p=p, element_size=element_size)
    return code, LocalCluster(code, n_stripes)


def sim_cluster(k=3, p=5, element_size=64, n_stripes=6):
    """The same cluster on the simulation seam: zero sockets, zero
    real sleeps, deterministic scheduling."""
    code = make_code("liberation-optimal", k, p=p, element_size=element_size)
    cluster = LocalCluster(
        code, n_stripes, transport=MemoryTransport(), clock=VirtualClock()
    )
    return code, cluster


def elastic_sim_cluster(k=3, p=5, element_size=64, n_stripes=6, n_nodes=None):
    """A node pool with rendezvous placement on the simulation seam.

    Defaults to ``k + 4`` nodes so churn drills have headroom to drain
    and lose nodes while the placement pool stays >= ``k + 2``.
    """
    code = make_code("liberation-optimal", k, p=p, element_size=element_size)
    if n_nodes is None:
        n_nodes = code.n_cols + 2
    cluster = LocalCluster(
        code, n_stripes, n_nodes, transport=MemoryTransport(), clock=VirtualClock()
    )
    return code, cluster


async def consistent(arr) -> bool:
    """Whether every stripe's strips, parity included, form a codeword."""
    code = arr.code
    for stripe in range(arr.n_stripes):
        strips = LandedStrips()
        lost = await arr._gather(
            [(col, [stripe]) for col in range(code.n_cols)], {stripe: strips}
        )
        if lost[stripe] or not code.verify(strips.copy_to(code.alloc_stripe())):
            return False
    return True


def payload_for(array, *, seed=0) -> bytes:
    """Deterministic user data filling the whole array."""
    rng = np.random.default_rng(seed)
    return rng.bytes(array.capacity)


@pytest.fixture
def fast_policy():
    return RetryPolicy(attempts=2, timeout=0.5, backoff=0.01, max_backoff=0.02)
