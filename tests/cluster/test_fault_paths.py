"""Network-fault drills: every transport-level failure mode must
resolve to a correct degraded read, across Liberation geometries.

The three faults the ISSUE names -- request timeout, connection
dropped mid-strip, corrupted frame checksum -- are installed on one
node's data plane (persistently, so the retry budget cannot paper over
them), and the array must answer byte-identical data by decoding
around the sick column, with the failure visible in the metrics.

The drills run on the simulation seam (virtual clock + in-memory
transport), so the timeout drill's ``attempts * timeout`` per strip is
virtual seconds, not wall time, and every run schedules identically.
"""

import asyncio

import pytest

from repro.array.faults import ALWAYS, NetworkFaultPlan
from repro.cluster import RetryPolicy
from tests.cluster.conftest import payload_for, sim_cluster

#: Tight budget: the timeout drill pays attempts * timeout per strip
#: (in virtual seconds only).
DRILL_POLICY = RetryPolicy(attempts=2, timeout=0.15, backoff=0.01, max_backoff=0.02)

GEOMETRIES = [(3, 5), (5, 7), (7, 11)]  # (k, p) for Liberation


def drill(k: int, p: int, plan: NetworkFaultPlan, *, via_wire: bool = False):
    """Write, poison node 0 with ``plan``, read back; returns evidence."""

    async def run():
        code, cluster = sim_cluster(k=k, p=p, n_stripes=2)
        async with cluster:
            arr = cluster.array(policy=DRILL_POLICY)
            data = payload_for(arr, seed=p)
            await arr.write(0, data)
            if via_wire:
                await arr.client_for_node(0).request("fault", {"plan": plan.to_header()})
            else:
                cluster.nodes[0].faults = plan
            back = await arr.read(0, arr.capacity)
            return data, back, arr.metrics.snapshot()["counters"]

    return asyncio.run(run())


@pytest.mark.parametrize("k,p", GEOMETRIES)
class TestFaultPaths:
    def test_node_timeout_resolves_to_degraded_read(self, k, p):
        data, back, counters = drill(k, p, NetworkFaultPlan(latency=0.4))
        assert back == data
        assert counters["timeouts"] > 0
        assert counters["retries"] > 0
        assert counters["decodes"] > 0

    def test_dropped_connection_mid_strip(self, k, p):
        data, back, counters = drill(k, p, NetworkFaultPlan(drop_mid_frame=ALWAYS))
        assert back == data
        assert counters["connection_errors"] > 0
        assert counters["retries"] > 0
        assert counters["decodes"] > 0

    def test_corrupted_frame_checksum(self, k, p):
        """Every get reply arrives with a flipped strip byte: the strip
        fails its CRC, fails it again when fetched once more, and is
        decoded around like rot."""
        data, back, counters = drill(k, p, NetworkFaultPlan(corrupt_frames=ALWAYS))
        assert back == data
        assert counters["strip_crc_mismatches"] > 0
        assert counters["strip_refetches"] > 0
        assert counters["rot_erasures"] > 0
        assert counters["decodes"] > 0


class TestFaultSemantics:
    def test_transient_fault_consumed_by_retry(self):
        """A one-shot injected io-error is absorbed by the retry budget:
        no degraded read, no decode."""
        data, back, counters = drill(3, 5, NetworkFaultPlan(fail_requests=1))
        assert back == data
        assert counters["remote_errors"] == 1
        assert counters.get("decodes", 0) == 0

    def test_persistent_io_errors_resolve_to_degraded_read(self):
        data, back, counters = drill(3, 5, NetworkFaultPlan(fail_requests=ALWAYS))
        assert back == data
        assert counters["decodes"] > 0

    def test_fault_installed_over_the_wire(self):
        """The ``fault`` verb behaves like in-process installation, and
        control verbs still reach the sick node."""
        data, back, counters = drill(
            3, 5, NetworkFaultPlan(corrupt_frames=ALWAYS), via_wire=True
        )
        assert back == data
        assert counters["strip_crc_mismatches"] > 0
        assert counters["decodes"] > 0

    def test_budgeted_counts_decrement(self):
        plan = NetworkFaultPlan(corrupt_frames=2)
        assert plan.consume("corrupt_frames") and plan.consume("corrupt_frames")
        assert not plan.consume("corrupt_frames")
        always = NetworkFaultPlan(drop_mid_frame=ALWAYS)
        for _ in range(5):
            assert always.consume("drop_mid_frame")

    def test_plan_wire_round_trip(self):
        plan = NetworkFaultPlan(
            latency=0.5, fail_requests=3, drop_mid_frame=ALWAYS, corrupt_frames=1
        )
        assert NetworkFaultPlan.from_header(plan.to_header()) == plan


class TestExhaustionCounters:
    """A failure that survives the whole retry budget must be visible
    as ``retries_exhausted`` (with a per-verb label), and a blown total
    deadline as ``deadline_exceeded_<verb>`` -- the counters operators
    alert on, as opposed to ``retries`` which also counts recoveries."""

    def test_retries_exhausted_counts_per_verb(self):
        data, back, counters = drill(3, 5, NetworkFaultPlan(drop_mid_frame=ALWAYS))
        assert back == data  # degraded read still answers
        assert counters["retries_exhausted"] > 0
        assert counters["retries_exhausted_get"] > 0
        assert counters["retries_exhausted"] >= counters["retries_exhausted_get"]

    def test_transient_fault_does_not_count_as_exhausted(self):
        _, _, counters = drill(3, 5, NetworkFaultPlan(fail_requests=1))
        assert counters.get("retries_exhausted", 0) == 0

    def test_deadline_exceeded_counts_per_verb(self):
        async def run():
            code, cluster = sim_cluster(k=3, p=5, n_stripes=2)
            async with cluster:
                # Total budget smaller than one sick attempt: the
                # deadline, not the per-attempt timeout, fires first.
                policy = RetryPolicy(
                    attempts=3, timeout=0.3, backoff=0.01,
                    max_backoff=0.02, deadline=0.2,
                )
                arr = cluster.array(policy=policy)
                data = payload_for(arr, seed=5)
                await arr.write(0, data)
                cluster.nodes[0].faults = NetworkFaultPlan(latency=0.5)
                back = await arr.read(0, arr.capacity)
                return data, back, arr.metrics.snapshot()["counters"]

        data, back, counters = asyncio.run(run())
        assert back == data
        assert counters["deadline_exceeded"] > 0
        assert counters["deadline_exceeded_get"] > 0
