"""Membership drills: epoch-numbered table + heartbeat monitor.

The table is pure state-machine logic (no I/O), so the transition
tests are plain unit tests; the monitor drills run on the simulation
seam and prove the heartbeat actually drives the table -- misses to
DEAD, answers to LIVE -- with every change visible as an epoch bump.
"""

import asyncio

import pytest

from repro.cluster import HealthMonitor, MembershipError, MembershipTable
from repro.cluster.membership import NodeState
from repro.obs.metrics import MetricsRegistry
from tests.cluster.conftest import FAST_POLICY, elastic_sim_cluster, payload_for


def table_of(n: int, *, live: bool = True) -> MembershipTable:
    table = MembershipTable()
    for i in range(n):
        table.join(f"n{i}", ("127.0.0.1", 9000 + i), live=live)
    return table


class TestMembershipTable:
    def test_every_mutation_bumps_the_epoch(self):
        table = MembershipTable()
        seen = [table.epoch]
        seen.append(table.join("n0", ("127.0.0.1", 9000)))
        seen.append(table.mark_live("n0"))
        seen.append(table.drain("n0"))
        seen.append(table.remove("n0"))
        seen.append(table.bump())
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)  # strictly monotonic

    def test_join_lifecycle(self):
        table = MembershipTable()
        table.join("n0", ("127.0.0.1", 9000))
        assert table.state_of("n0") is NodeState.JOINING
        assert "n0" not in table.placement_pool()
        table.mark_live("n0")
        assert table.state_of("n0") is NodeState.LIVE
        assert table.placement_pool() == ("n0",)

    def test_live_join_skips_joining(self):
        table = table_of(1)
        assert table.state_of("n0") is NodeState.LIVE

    def test_rejoining_a_serving_node_is_an_error(self):
        table = table_of(1)
        with pytest.raises(MembershipError):
            table.join("n0", ("127.0.0.1", 9100))

    def test_rejoining_a_dead_node_revives_it(self):
        table = table_of(1)
        table.mark_dead("n0")
        table.join("n0", ("127.0.0.1", 9100), live=True)
        assert table.state_of("n0") is NodeState.LIVE
        assert table.address_of("n0") == ("127.0.0.1", 9100)

    def test_draining_serves_but_does_not_place(self):
        table = table_of(3)
        table.drain("n1")
        assert table.state_of("n1") is NodeState.DRAINING
        assert "n1" in table.serving()
        assert "n1" not in table.placement_pool()
        table.remove("n1")
        assert table.state_of("n1") is NodeState.LEFT
        assert "n1" not in table.serving()
        assert "n1" not in table.probed()

    def test_illegal_transitions_raise(self):
        table = table_of(2)
        with pytest.raises(MembershipError):
            table.remove("n0")  # LIVE cannot leave without drain/death
        table.mark_dead("n1")
        with pytest.raises(MembershipError):
            table.drain("n1")  # DEAD cannot drain
        with pytest.raises(MembershipError):
            table.mark_dead("n1")  # already dead
        with pytest.raises(MembershipError):
            table.state_of("ghost")
        with pytest.raises(MembershipError):
            table.mark_live("ghost")

    def test_drain_cancel_returns_to_live(self):
        table = table_of(2)
        table.drain("n0")
        table.mark_live("n0")
        assert table.state_of("n0") is NodeState.LIVE
        assert "n0" in table.placement_pool()

    def test_counts_by_state(self):
        table = table_of(3)
        table.drain("n0")
        table.mark_dead("n1")
        counts = table.counts()
        assert counts["live"] == 1
        assert counts["draining"] == 1
        assert counts["dead"] == 1

    def test_header_round_trip(self):
        table = table_of(3)
        table.drain("n1")
        table.mark_dead("n2")
        clone = MembershipTable.from_header(table.to_header())
        assert clone.epoch == table.epoch
        assert set(clone.nodes) == set(table.nodes)
        for node_id in table.nodes:
            assert clone.state_of(node_id) is table.state_of(node_id)
            assert clone.address_of(node_id) == table.address_of(node_id)

    def test_metrics_export(self):
        reg = MetricsRegistry()
        table = MembershipTable(metrics=reg)
        table.join("n0", ("127.0.0.1", 9000), live=True)
        snap = reg.snapshot()["gauges"]
        assert snap["membership_epoch"] == table.epoch
        assert snap["membership_nodes_live"] == 1


class TestPoolHeartbeat:
    """The heartbeat monitor's verdicts on a rendezvous pool's table."""

    def test_misses_mark_dead_after_threshold(self):
        async def run():
            _, cluster = elastic_sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                monitor = HealthMonitor(arr, miss_threshold=2, probe_timeout=0.2)
                await cluster.stop_node(1)
                await monitor.probe_once()
                assert arr.membership.state_of(1) is NodeState.LIVE  # one miss
                epoch_before = arr.membership.epoch
                await monitor.probe_once()
                assert arr.membership.state_of(1) is NodeState.DEAD
                assert arr.membership.epoch > epoch_before
                assert 1 not in arr.membership.placement_pool()

        asyncio.run(run())

    def test_answering_probe_revives_a_dead_node(self):
        async def run():
            _, cluster = elastic_sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                monitor = HealthMonitor(arr, miss_threshold=1, probe_timeout=0.2)
                await cluster.stop_node(2)
                await monitor.probe_once()
                assert arr.membership.state_of(2) is NodeState.DEAD
                await cluster.restart_node(2)
                await monitor.probe_once()
                assert arr.membership.state_of(2) is NodeState.LIVE

        asyncio.run(run())

    def test_probe_promotes_joining_to_live(self):
        async def run():
            _, cluster = elastic_sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                monitor = HealthMonitor(arr, miss_threshold=2, probe_timeout=0.2)
                node_id = await cluster.add_node(live=False)
                assert arr.membership.state_of(node_id) is NodeState.JOINING
                assert node_id not in arr.membership.placement_pool()
                await monitor.probe_once()
                assert arr.membership.state_of(node_id) is NodeState.LIVE
                assert node_id in arr.membership.placement_pool()

        asyncio.run(run())

    def test_on_change_fires_with_the_new_epoch(self):
        async def run():
            _, cluster = elastic_sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                epochs = []
                monitor = HealthMonitor(
                    arr, miss_threshold=1, probe_timeout=0.2,
                    on_change=epochs.append,
                )
                await monitor.probe_once()
                assert epochs == []  # healthy round: no mutation
                await cluster.stop_node(0)
                await monitor.probe_once()
                assert epochs == [arr.membership.epoch]

        asyncio.run(run())

    def test_foreground_io_survives_a_heartbeat_detected_death(self):
        async def run():
            _, cluster = elastic_sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=3)
                await arr.write(0, data)
                victim = arr.holders(0)[0]
                monitor = HealthMonitor(arr, miss_threshold=1, probe_timeout=0.2)
                await cluster.stop_node(victim)
                await monitor.probe_once()
                assert arr.membership.state_of(victim) is NodeState.DEAD
                back = await arr.read(0, arr.capacity)
                assert back == data
                assert arr.metrics.snapshot()["counters"]["decodes"] > 0

        asyncio.run(run())
