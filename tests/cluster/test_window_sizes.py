"""A window of fewer than one stripe is refused where it is set.

The rebuild, the health monitor's heal and the scrub each walk the
array in windows.  A window size below 1 is a ``ValueError`` from the
constructor, before any RPC, spare request or counter, and the scrub
CLI reports it as an ``error:`` line, not a traceback.
"""

import asyncio

import pytest

from repro.cli import main
from repro.cluster import ClusterArray, ClusterScrubber, HealthMonitor, RebuildScheduler
from repro.codes import make_code
from repro.sim import MemoryTransport, VirtualClock
from tests.cluster.conftest import FAST_POLICY, sim_cluster


def idle_array() -> ClusterArray:
    """An array whose nodes were never started: any RPC would fail."""
    code = make_code("liberation-optimal", 3, p=5, element_size=64)
    nodes = [("127.0.0.1", port) for port in range(9, 9 + code.n_cols)]
    return ClusterArray(
        code, nodes, 4, policy=FAST_POLICY, transport=MemoryTransport(), clock=VirtualClock()
    )


@pytest.mark.parametrize("size", [0, -3])
def test_a_rebuild_refuses_a_window_below_one_stripe(size):
    arr = idle_array()
    with pytest.raises(ValueError, match="batch_stripes must be positive"):
        RebuildScheduler(arr, batch_stripes=size)
    assert arr.metrics.get("rebuild_stripes_total") == 0


def test_a_monitor_refuses_a_rebuild_window_before_asking_for_a_spare():
    asked = []

    async def provider(node_id):
        asked.append(node_id)
        raise AssertionError("a spare was asked for")

    arr = idle_array()
    with pytest.raises(ValueError, match="rebuild_batch must be positive"):
        HealthMonitor(arr, spare_provider=provider, rebuild_batch=0)
    assert asked == []
    assert arr.breakers == {}  # nothing installed on the array either


@pytest.mark.parametrize("window", [0, -1])
def test_a_scrubber_refuses_a_window_below_one_stripe(window):
    with pytest.raises(ValueError, match="window must be positive"):
        ClusterScrubber(idle_array(), window=window)


def test_the_scrub_cli_reports_a_zero_window_as_an_error():
    nodes = [f"127.0.0.1:{port}" for port in range(9, 14)]
    with pytest.raises(SystemExit) as exit_:
        main(["cluster", "scrub", *nodes, "--stripes", "8", "--p", "5",
              "--element-size", "64", "--window", "0"])
    assert str(exit_.value.code).startswith("error: window must be positive")


def test_a_one_stripe_window_still_scrubs():
    async def run():
        code, cluster = sim_cluster(n_stripes=3)
        async with cluster:
            arr = cluster.array(policy=FAST_POLICY)
            report = await ClusterScrubber(arr, window=1).scrub()
            assert report.healthy
            assert report.stripes_scanned == 3

    asyncio.run(run())
