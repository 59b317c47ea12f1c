"""Rebalancer drills: throttled migration, drains, heals, crash sweeps.

Everything runs on the simulation seam (in-memory transport + virtual
clock), so the throttle's pacing is measured in exact virtual seconds
and every churn schedule replays identically.  The crash sweeps are
the heart of the file: a target that stops, dies after storing its
strip or loses its reply, a source that crashes at a ``release``
crash point (``release-before-drop``, ``release-before-reply``), and
every coordinator-side RPC position must leave each column routed to
its old holder or its new one, reading back the written bytes, and a
fresh coordinator must finish the job.  Each runs on a stripe that
moves a column onto the new node and on one where a node changes
columns -- a node keeps one strip per stripe, so that node may take
its new column only after its old one flipped away.
"""

import asyncio

import pytest

from repro.cluster import (
    ClientCrash,
    ClusterError,
    ClusterScrubber,
    HealthMonitor,
    MembershipError,
    RebalanceError,
    TokenBucket,
)
from repro.cluster.membership import NodeState
from repro.cluster.node import NodeCrashed
from repro.sim import VirtualClock
from tests.cluster.conftest import (
    FAST_POLICY,
    consistent,
    elastic_sim_cluster,
    payload_for,
    sim_cluster,
)


class TestTokenBucket:
    def test_burst_is_free_then_debt_is_paid_at_rate(self):
        async def run():
            clock = VirtualClock()
            bucket = TokenBucket(100.0, 50.0, clock)
            assert await bucket.take(50) == 0.0  # within burst
            slept = await bucket.take(100)  # overdraft of 100 tokens
            assert slept == pytest.approx(1.0)
            assert clock.time() == pytest.approx(1.0)

        asyncio.run(run())

    def test_sustained_throughput_converges_to_rate(self):
        async def run():
            clock = VirtualClock()
            bucket = TokenBucket(100.0, 100.0, clock)
            for _ in range(10):
                await bucket.take(100)
            # 1000 tokens through a 100/s bucket with 100 burst: the
            # first chunk rides the burst, the rest pay full price.
            assert clock.time() == pytest.approx(9.0)

        asyncio.run(run())

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0, 1.0, VirtualClock())


async def churned(cluster, *, seed):
    """Write a full payload, add one node; returns (array, data, new_id)."""
    arr = cluster.array(policy=FAST_POLICY)
    data = payload_for(arr, seed=seed)
    await arr.write(0, data)
    new_id = await cluster.add_node()
    return arr, data, new_id


class TestConvergence:
    def test_join_then_rebalance_moves_data_and_preserves_it(self):
        async def run():
            _, cluster = elastic_sim_cluster()
            async with cluster:
                arr, data, new_id = await churned(cluster, seed=1)
                reb = cluster.rebalancer(arr)
                todo = reb.misplaced()
                assert todo  # the new node wins some strips (seeded)
                epoch_before = arr.membership.epoch
                moved = await reb.run_until_converged()
                assert moved == len(todo)
                assert reb.misplaced() == []
                assert reb.strips_on(new_id) > 0
                assert arr.membership.epoch > epoch_before  # one bump per flip
                assert await arr.read(0, arr.capacity) == data
                counters = arr.metrics.snapshot()["counters"]
                assert counters["stripes_migrated"] == moved
                assert counters["migration_bytes"] > 0

        asyncio.run(run())

    def test_converged_cluster_is_a_no_op(self):
        async def run():
            _, cluster = elastic_sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=2)
                await arr.write(0, data)
                reb = cluster.rebalancer(arr)
                assert await reb.run_until_converged() == 0
                assert arr.metrics.snapshot()["counters"].get(
                    "stripes_migrated", 0
                ) == 0

        asyncio.run(run())

    def test_dead_node_heals_onto_survivors(self):
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
                reb = cluster.rebalancer(arr)
                moved = await reb.run_until_converged()
                assert moved > 0
                assert reb.misplaced() == []
                # Full redundancy restored: nothing routes to the corpse.
                assert reb.strips_on(victim) == 0
                assert await arr.read(0, arr.capacity) == data

        asyncio.run(run())

    def test_throttle_paces_migration_at_the_configured_rate(self):
        async def run():
            _, cluster = elastic_sim_cluster()
            async with cluster:
                arr, data, _ = await churned(cluster, seed=4)
                rate, burst = 4096.0, 1024.0
                reb = cluster.rebalancer(arr, rate_bytes=rate, burst_bytes=burst)
                t0 = arr.clock.time()
                await reb.run_until_converged()
                elapsed = arr.clock.time() - t0
                moved_bytes = arr.metrics.snapshot()["counters"]["migration_bytes"]
                assert moved_bytes > burst
                # Debt model: every byte past the burst is paid at rate.
                assert elapsed >= (moved_bytes - burst) / rate
                assert await arr.read(0, arr.capacity) == data

        asyncio.run(run())

    def test_foreground_gate_defers_migration(self):
        async def run():
            _, cluster = elastic_sim_cluster()
            async with cluster:
                arr, data, _ = await churned(cluster, seed=5)
                busy = {"rounds": 3}

                def gate() -> bool:
                    if busy["rounds"] > 0:
                        busy["rounds"] -= 1
                        return True
                    return False

                reb = cluster.rebalancer(
                    arr, foreground_gate=gate, gate_backoff=0.01
                )
                await reb.run_until_converged()
                counters = arr.metrics.snapshot()["counters"]
                assert counters["rebalance_yields"] == 3
                assert await arr.read(0, arr.capacity) == data

        asyncio.run(run())


class TestDrain:
    def test_drain_empties_the_node_and_tombstones_it(self):
        async def run():
            _, cluster = elastic_sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=6)
                await arr.write(0, data)
                reb = cluster.rebalancer(arr)
                victim = max(arr.membership.serving(), key=reb.strips_on)
                assert reb.strips_on(victim) > 0
                moved = await reb.drain(victim)
                assert moved >= reb.strips_on(victim) == 0
                assert arr.membership.state_of(victim) is NodeState.LEFT
                assert victim not in arr.membership.placement_pool()
                assert arr.metrics.snapshot()["gauges"]["drain_remaining"] == 0
                assert await arr.read(0, arr.capacity) == data

        asyncio.run(run())

    def test_drain_refuses_to_shrink_below_the_column_count(self):
        async def run():
            code, cluster = elastic_sim_cluster(n_nodes=5)  # exactly k + 2
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                reb = cluster.rebalancer(arr)
                with pytest.raises(MembershipError):
                    await reb.drain(0)
                # Nothing changed: the node still serves and places.
                assert arr.membership.state_of(0) is NodeState.LIVE

        asyncio.run(run())

    def test_drain_under_sustained_foreground_load_zero_client_failures(self):
        """The acceptance drill: a full drain completes while a client
        hammers reads and writes, and the client never sees an error."""

        async def run():
            _, cluster = elastic_sim_cluster(n_stripes=8)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                model = bytearray(payload_for(arr, seed=7))
                await arr.write(0, bytes(model))
                reb = cluster.rebalancer(arr)
                victim = max(arr.membership.serving(), key=reb.strips_on)
                stripe_bytes = arr.stripe_data_bytes
                stop = asyncio.Event()
                failures: list[Exception] = []
                ops = {"done": 0}

                async def foreground():
                    i = 0
                    while not stop.is_set():
                        off = (i % arr.n_stripes) * stripe_bytes
                        try:
                            if i % 3 == 2:
                                chunk = bytes([(i * 31) % 251] * 64)
                                model[off : off + 64] = chunk
                                await arr.write(off, chunk)
                            else:
                                back = await arr.read(off, 64)
                                assert back == bytes(model[off : off + 64])
                        except Exception as exc:  # any client-visible failure
                            failures.append(exc)
                        ops["done"] += 1
                        i += 1
                        await arr.clock.sleep(0.01)

                task = asyncio.get_running_loop().create_task(foreground())
                moved = await reb.drain(victim)
                stop.set()
                await task
                assert failures == []
                assert ops["done"] > 0
                assert moved > 0
                assert reb.strips_on(victim) == 0
                assert arr.membership.state_of(victim) is NodeState.LEFT
                assert await arr.read(0, arr.capacity) == bytes(model)

        asyncio.run(run())


def migration_fixture(seed, *, overlap=False):
    """A cluster mid-churn with one stripe picked for migration.

    Returns (cluster, arr, data, reb, stripe, node) inside the caller's
    coroutine.  The stripe is the first misplaced one with a moving
    column whose target ``node`` is the freshly joined node, or with
    ``overlap`` the first where ``node`` already holds another column
    of the stripe: a node that changes columns.
    """

    async def build():
        _, cluster = elastic_sim_cluster()
        await cluster.start()
        arr, data, new_id = await churned(cluster, seed=seed)
        reb = cluster.rebalancer(arr)
        for stripe in reb.misplaced():
            before, target = arr.holders(stripe), reb.targets(stripe)
            for col, node in enumerate(target):
                if node != before[col] and (node in before if overlap else node == new_id):
                    return cluster, arr, data, reb, stripe, node
        raise AssertionError("no stripe of the wanted shape")

    return build()


#: the two stripe choices of :func:`migration_fixture`
STRIPES = {"new-node": False, "node-changes-column": True}


def after_put(node, action):
    """Make ``node`` run ``action`` right after its next ``put`` stored
    its strips, before it replies: ``action`` may crash the node or
    fault the reply."""
    serve = node._serve_put

    def wrapped(header, payload):
        reply = serve(header, payload)
        del node._serve_put  # once
        action()
        return reply

    node._serve_put = wrapped


def routed_old_or_new(arr, stripe, before, target) -> bool:
    return all(
        node in (before[col], target[col]) for col, node in enumerate(arr.holders(stripe))
    )


class TestColumnOrderDrain:
    def test_join_then_drain_moves_one_column_wholesale(self):
        """A column-ordered array drains onto a spare joined to its own
        table: the column moves to the spare for every stripe."""

        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=8)
                await arr.write(0, data)
                spare = await cluster.add_node()
                arr.membership.join(spare, cluster.nodes[spare].address, live=True)
                reb = cluster.rebalancer(arr)
                assert reb.misplaced() == []  # a spare alone moves nothing
                assert await reb.drain(1) == arr.n_stripes
                assert arr.column_node(1) == spare
                assert arr.membership.state_of(1) is NodeState.LEFT
                await cluster.stop_node(1)
                assert await arr.read(0, arr.capacity) == data
                assert arr.metrics.get("decodes") == 0

        asyncio.run(run())


class TestCrashSweep:
    """Every failure routes each column to its old or its new holder."""

    # Each target failure is named for the step of its moving column it
    # hits: ``migrate`` is the put that lands the strip on the target,
    # ``commit`` the flip that routes the column there once that put
    # is acknowledged.
    TARGET_FAILURES = [
        "migrate-target-stopped-before-put",
        "migrate-put-reply-dropped",
        "commit-target-dies-after-put",
    ]

    @pytest.mark.parametrize("shape", STRIPES)
    @pytest.mark.parametrize("failure", TARGET_FAILURES)
    def test_target_node_crash_leaves_all_old_at_source(self, failure, shape):
        """A target that fails before its column commits leaves that
        column at its source; a dropped put reply is retried and the
        column commits once."""

        async def run():
            cluster, arr, data, reb, stripe, node = await migration_fixture(
                8, overlap=STRIPES[shape]
            )
            try:
                before, target = arr.holders(stripe), reb.targets(stripe)
                if failure == "migrate-put-reply-dropped":
                    # The put lands, its reply is cut mid-frame: the
                    # client retries it and the column flips once.
                    after_put(cluster.nodes[node], lambda: setattr(
                        cluster.nodes[node].faults, "drop_mid_frame", 1))
                    assert await reb.migrate_stripe(stripe)
                    assert arr.holders(stripe) == target
                    counters = arr.metrics.snapshot()["counters"]
                    assert counters["retries"] == 1
                    assert counters["stripes_migrated"] == 1
                    assert await arr.read(0, arr.capacity) == data
                    return
                if failure == "migrate-target-stopped-before-put":
                    await cluster.stop_node(node)
                else:
                    def die():
                        raise NodeCrashed("died after storing its strip")

                    after_put(cluster.nodes[node], die)
                with pytest.raises(ClusterError):
                    await reb.migrate_stripe(stripe)
                # Nothing routes to the failed target; every other
                # column is at its old holder or its new one.
                assert routed_old_or_new(arr, stripe, before, target)
                assert all(
                    arr.holders(stripe)[col] == before[col]
                    for col in range(len(target))
                    if target[col] == node
                )
                assert await arr.read(0, arr.capacity) == data
                # Reboot it: whatever it stored is unrouted, or its own.
                await cluster.restart_node(node)
                assert await arr.read(0, arr.capacity) == data
                await reb.run_until_converged()
                assert reb.misplaced() == []
                assert await arr.read(0, arr.capacity) == data
                assert await consistent(arr)
            finally:
                await cluster.stop()

        asyncio.run(run())

    SOURCE_POINTS = ["release-before-drop", "release-before-reply"]

    @pytest.mark.parametrize("point", SOURCE_POINTS)
    def test_source_crash_during_release_leaves_all_new_at_target(self, point):
        async def run():
            cluster, arr, data, reb, stripe, _ = await migration_fixture(9)
            try:
                before = arr.holders(stripe)
                target = reb.targets(stripe)
                # A source being vacated (and not kept at another column)
                # is the node that will be asked to release.
                source = next(
                    before[c]
                    for c in range(len(before))
                    if before[c] != target[c] and before[c] not in set(target)
                )
                cluster.nodes[source].crashes.arm(point)
                # Release is post-flip and best-effort: the migration
                # itself must succeed even though the source dies.
                assert await reb.migrate_stripe(stripe)
                assert arr.holders(stripe) == target  # all-new
                assert await arr.read(0, arr.capacity) == data
                await cluster.restart_node(source)
                await reb.run_until_converged()
                assert reb.misplaced() == []
                assert await arr.read(0, arr.capacity) == data
            finally:
                await cluster.stop()

        asyncio.run(run())

    def test_coordinator_crash_sweep_is_atomic_at_every_rpc(self):
        """Kill the rebalancer before its Nth protocol RPC for every N
        until a full migration fits, on both stripe choices: each column
        routes to its old or its new holder, reads return the written
        bytes, and a fresh coordinator converges to them."""

        async def run_position(after: int, overlap: bool) -> tuple[bool, int]:
            cluster, arr, data, reb, stripe, _ = await migration_fixture(
                10, overlap=overlap
            )
            try:
                before = arr.holders(stripe)
                target = reb.targets(stripe)
                reb.crash.arm(after=after)
                crashed = False
                try:
                    await reb.migrate_stripe(stripe)
                except ClientCrash:
                    crashed = True
                assert routed_old_or_new(arr, stripe, before, target)
                assert await arr.read(0, arr.capacity) == data
                # A fresh coordinator (new crash plan) finishes the job.
                fresh = cluster.rebalancer(arr)
                await fresh.run_until_converged()
                assert fresh.misplaced() == []
                assert await arr.read(0, arr.capacity) == data
                assert await consistent(arr)
                moving = sum(b != t for b, t in zip(before, target))
                return crashed, moving
            finally:
                await cluster.stop()

        async def run():
            for overlap in STRIPES.values():
                after = 0
                while (outcome := await run_position(after, overlap))[0]:
                    after += 1
                    assert after < 64, "migration protocol grew without bound"
                # a put per moving column, then a vacated source's
                # probe and release at minimum
                assert after >= outcome[1] + 2

        asyncio.run(run())


class TestStaleColumns:
    def test_a_migration_clears_only_the_stale_columns_it_moved(self):
        async def run():
            cluster, arr, data, reb, stripe, _ = await migration_fixture(
                12, overlap=True
            )
            try:
                before, target = arr.holders(stripe), reb.targets(stripe)
                moved = next(c for c, node in enumerate(target) if node != before[c])
                stays = next(c for c, node in enumerate(target) if node == before[c])
                arr.dirty_stripes[stripe] = {moved, stays}
                assert await reb.migrate_stripe(stripe)
                # The moved column landed a freshly encoded strip; the
                # one that stayed put is still stale.
                assert arr.dirty_stripes[stripe] == {stays}
                assert await arr.read(0, arr.capacity) == data
            finally:
                await cluster.stop()

        asyncio.run(run())


class TestReadBackMismatch:
    def test_divergent_read_back_routes_no_column_onto_another_columns_bytes(self):
        """A read-back that disagrees with the assembled image fails the
        migration; the column whose source took another column stays at
        its target, listed stale, and the other routes back."""

        async def run():
            cluster, arr, data, reb, stripe, _ = await migration_fixture(
                11, overlap=True
            )
            try:
                before, target = arr.holders(stripe), reb.targets(stripe)
                moving = {c for c, node in enumerate(target) if node != before[c]}
                fetch = arr._fetch_stripes
                fetched = []

                async def diverging(stripes, lost=None):
                    bufs = await fetch(stripes, lost)
                    fetched.append(stripes)
                    if len(fetched) == 2:  # the read-back
                        bufs[0][0, 0, 0] ^= 1
                    return bufs

                arr._fetch_stripes = diverging
                with pytest.raises(RebalanceError):
                    await reb.migrate_stripe(stripe)
                del arr._fetch_stripes
                assert len(fetched) == 2
                # Every routed slot holds its own column's bytes, and
                # the column kept at its target is listed stale.
                want = arr.code.alloc_stripe()
                arr._fill_data_columns(
                    want, data[stripe * arr.stripe_data_bytes :][: arr.stripe_data_bytes]
                )
                arr.code.encode(want)
                holders = arr.holders(stripe)
                for col, node in enumerate(holders):
                    strip = cluster.nodes[node].disk.read_strip(stripe)
                    assert strip.tobytes() == want[col].tobytes(), col
                # No whole-stripe revert, and the rest routed back.
                kept = {c for c, node in enumerate(holders) if node != before[c]}
                assert kept and kept < moving
                assert arr.dirty_stripes[stripe] == kept
                assert await arr.read(0, arr.capacity) == data
                await ClusterScrubber(arr).scrub()
                assert stripe not in arr.dirty_stripes
                await reb.run_until_converged()
                assert reb.misplaced() == []
                assert await arr.read(0, arr.capacity) == data
                assert await consistent(arr)
            finally:
                await cluster.stop()

        asyncio.run(run())
