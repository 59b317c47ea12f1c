"""Two-phase-commit drills: the distributed write hole must stay closed.

The crash-point sweeps mirror ``tests/array/test_journal.py``: the
client side is swept by killing the coordinator before every protocol
RPC of a write (:class:`~repro.cluster.txn.TxnCrashPoint`), the node
side by arming every :class:`~repro.cluster.node.NodeCrashPlan` point.
After recovery (plus a scrub for columns excluded from the
transaction) every stripe must be *all-old or all-new* -- never mixed.

Everything runs on the simulation seam (virtual clock + in-memory
transport), so the sweeps are deterministic and cost no wall time.
"""

import asyncio

import numpy as np
import pytest

from repro.cluster import (
    ClusterDegradedError,
    ClusterScrubber,
    NodeCrashPlan,
    TwoPhaseWriter,
)
from repro.cluster.txn import ClientCrash
from tests.cluster.conftest import FAST_POLICY, sim_cluster


def make_stripe(code, seed):
    """A fully encoded stripe buffer with deterministic data."""
    rng = np.random.default_rng(seed)
    buf = code.alloc_stripe()
    buf[: code.k] = rng.integers(
        0, 2**64, buf[: code.k].shape, dtype=np.uint64
    )
    code.encode(buf)
    return buf


def column_states(cluster, stripe, old, new):
    """Per-column verdict against the two legal images."""
    states = []
    for col, node in enumerate(cluster.nodes):
        strip = node.disk.read_strip(stripe).reshape(old[col].shape)
        if np.array_equal(strip, new[col]):
            states.append("new")
        elif np.array_equal(strip, old[col]):
            states.append("old")
        else:
            states.append("MIXED")
    return states


def assert_atomic(cluster, stripe, old, new, *, columns=None):
    """The stripe (or a subset of columns) is all-old or all-new."""
    states = column_states(cluster, stripe, old, new)
    if columns is not None:
        states = [states[c] for c in columns]
    assert set(states) in ({"old"}, {"new"}), states


def no_pending_intents(cluster):
    return all(not node.intents for node in cluster.nodes)


class TestCleanProtocol:
    def test_clean_write_applies_everywhere(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                old = make_stripe(code, seed=1)
                new = make_stripe(code, seed=2)
                await arr.write_stripe(0, old)
                writer = TwoPhaseWriter(arr, client_id="t")
                skipped = await writer.write_stripe(0, new)
                assert skipped == []
                assert column_states(cluster, 0, old, new) == ["new"] * code.n_cols
                assert no_pending_intents(cluster)
                assert all(
                    node.txn_done.get("t-1") == "committed"
                    for node in cluster.nodes
                )
                assert not arr.dirty_stripes

        asyncio.run(run())

    def test_commit_is_idempotent(self):
        """A client that lost the commit reply can simply resend."""

        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                new = make_stripe(code, seed=3)
                writer = TwoPhaseWriter(arr, client_id="t")
                await writer.write_stripe(0, new)
                reply, _ = await arr.client_for_node(0).request("commit", {"txn": "t-1"})
                assert reply["state"] == "committed"
                assert reply["applied"] is False
                # A late duplicate prepare cannot resurrect the intent.
                reply, _ = await arr.client_for_node(0).request(
                    "prepare",
                    {"txn": "t-1", "stripe": 0, "part": []},
                    np.ascontiguousarray(new[0]).tobytes(),
                )
                assert reply["state"] == "committed"
                assert no_pending_intents(cluster)

        asyncio.run(run())


class TestClientCrashSweep:
    def test_every_client_crash_position_recovers_atomically(self):
        """Kill the coordinator before each protocol RPC in turn.

        A full-stripe write issues ``n_cols`` prepares then ``n_cols``
        commits; after recovery the stripe must be all-old (crash
        before the decision) or all-new (crash after any commit), and
        no intent may stay pending.
        """

        async def run():
            code, cluster = sim_cluster()
            n_rpcs = 2 * code.n_cols
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                old = make_stripe(code, seed=1)
                for crash_at in range(n_rpcs):
                    await arr.write_stripe(0, old)
                    new = make_stripe(code, seed=100 + crash_at)
                    writer = TwoPhaseWriter(arr, client_id=f"c{crash_at}")
                    writer.crash.arm(after=crash_at)
                    with pytest.raises(ClientCrash):
                        await writer.write_stripe(0, new)
                    outcome = await writer.recover()
                    assert_atomic(cluster, 0, old, new)
                    assert no_pending_intents(cluster)
                    # Crash strictly after the first commit RPC completed
                    # means the decision was commit: all-new.
                    if crash_at > code.n_cols:
                        expected = ["new"] * code.n_cols
                        assert column_states(cluster, 0, old, new) == expected
                        assert outcome["rolled_forward"] or crash_at == n_rpcs
                    # Crash before any commit RPC: presumed abort, all-old.
                    if crash_at <= code.n_cols and crash_at < n_rpcs:
                        if crash_at < code.n_cols:
                            assert column_states(cluster, 0, old, new) == (
                                ["old"] * code.n_cols
                            )

        asyncio.run(run())

    def test_recovery_is_rerunnable(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                old = make_stripe(code, seed=1)
                new = make_stripe(code, seed=2)
                await arr.write_stripe(0, old)
                writer = TwoPhaseWriter(arr, client_id="t")
                writer.crash.arm(after=2)  # dies mid-prepare
                with pytest.raises(ClientCrash):
                    await writer.write_stripe(0, new)
                first = await writer.recover()
                second = await writer.recover()
                assert first["rolled_back"] == ["t-1"]
                assert second == {"rolled_forward": [], "rolled_back": []}
                assert_atomic(cluster, 0, old, new)

        asyncio.run(run())


class TestNodeCrashSweep:
    @pytest.mark.parametrize("point", [
        "prepare-before-log",
        "prepare-before-reply",
        "commit-before-apply",
        "commit-before-reply",
    ])
    def test_node_crash_mid_write_converges(self, point):
        """One node dies inside a txn verb; restart + recover + scrub
        must land the stripe all-old or all-new on every column."""

        async def run():
            code, cluster = sim_cluster()
            victim = 1
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                old = make_stripe(code, seed=1)
                new = make_stripe(code, seed=2)
                await arr.write_stripe(0, old)
                cluster.nodes[victim].crashes.arm(point)
                writer = TwoPhaseWriter(arr, client_id="t")
                await writer.write_stripe(0, new)
                assert not cluster.nodes[victim].running

                await cluster.restart_node(victim)
                arr.replace_node(victim, cluster.nodes[victim].address)
                await writer.recover()
                # Columns excluded from the txn hold stale strips; the
                # scrubber consumes the dirty list and rewrites them.
                await ClusterScrubber(arr).scrub()
                assert column_states(cluster, 0, old, new) == ["new"] * code.n_cols
                assert no_pending_intents(cluster)
                assert not arr.dirty_stripes

        asyncio.run(run())

    def test_rolled_forward_commit_leaves_no_stale_entry(self):
        """Recovery that rolls a commit forward onto the column that
        missed it takes the column off the stale list -- the stripe is
        not left listed with no stale column, which would send its
        next small write down the fallback path."""

        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write_stripe(0, make_stripe(code, seed=1))
                cluster.nodes[2].crashes.arm("commit-before-apply")
                writer = TwoPhaseWriter(arr, client_id="t")
                assert await writer.write_stripe(0, make_stripe(code, seed=2)) == []
                assert arr.dirty_stripes == {0: {2}}
                await cluster.restart_node(2)
                arr.replace_node(2, cluster.nodes[2].address)
                assert (await writer.recover())["rolled_forward"] == ["t-1"]
                assert arr.dirty_stripes == {}
                requests = arr.metrics.get("requests")
                await arr.write(0, b"\x5a" * 8)
                assert arr.metrics.get("requests") - requests == 4  # get, put, 2 xors
                assert arr.metrics.get("delta_writes") == 1

        asyncio.run(run())

    def test_abort_crash_rolls_back_on_recovery(self):
        """A node dying inside ``abort`` leaves its intent pending; the
        next recovery pass presumes abort and drops it."""

        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                old = make_stripe(code, seed=1)
                new = make_stripe(code, seed=2)
                await arr.write_stripe(0, old)
                await arr.client_for_node(0).request(
                    "prepare",
                    {"txn": "x-1", "stripe": 0, "part": [0]},
                    np.ascontiguousarray(new[0]).tobytes(),
                )
                cluster.nodes[0].crashes.arm("abort-before-drop")
                writer = TwoPhaseWriter(arr, client_id="x")
                await writer._abort("x-1", [0], stripe=0)  # crash swallowed: presumed abort
                assert not cluster.nodes[0].running
                await cluster.restart_node(0)
                arr.replace_node(0, cluster.nodes[0].address)
                outcome = await writer.recover()
                assert outcome["rolled_back"] == ["x-1"]
                assert no_pending_intents(cluster)
                assert column_states(cluster, 0, old, new)[0] == "old"

        asyncio.run(run())

    def test_abort_reply_crash_is_idempotent(self):
        """A node dying *after* dropping the intent but before replying
        (``abort-before-reply``) has already aborted durably; recovery
        finds nothing pending and a re-sent abort is a no-op."""

        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                old = make_stripe(code, seed=1)
                new = make_stripe(code, seed=2)
                await arr.write_stripe(0, old)
                await arr.client_for_node(0).request(
                    "prepare",
                    {"txn": "x-1", "stripe": 0, "part": [0]},
                    np.ascontiguousarray(new[0]).tobytes(),
                )
                cluster.nodes[0].crashes.arm("abort-before-reply")
                writer = TwoPhaseWriter(arr, client_id="x")
                await writer._abort("x-1", [0], stripe=0)  # crash swallowed: presumed abort
                assert not cluster.nodes[0].running
                await cluster.restart_node(0)
                arr.replace_node(0, cluster.nodes[0].address)
                # The intent was dropped before the crash: nothing pends.
                outcome = await writer.recover()
                assert outcome == {"rolled_forward": [], "rolled_back": []}
                assert no_pending_intents(cluster)
                # Re-sending the abort must be a harmless no-op.
                reply, _ = await arr.client_for_node(0).request("abort", {"txn": "x-1"})
                assert reply["state"] == "aborted"
                assert column_states(cluster, 0, old, new)[0] == "old"

        asyncio.run(run())


class TestDegradedTxn:
    def test_beyond_budget_aborts(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                new = make_stripe(code, seed=2)
                for col in (0, 1, 2):
                    await cluster.stop_node(col)
                writer = TwoPhaseWriter(arr, client_id="t")
                with pytest.raises(ClusterDegradedError):
                    await writer.write_stripe(0, new)
                assert no_pending_intents(cluster)

        asyncio.run(run())

    def test_skipped_columns_land_on_dirty_list(self):
        async def run():
            code, cluster = sim_cluster()
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                old = make_stripe(code, seed=1)
                new = make_stripe(code, seed=2)
                await arr.write_stripe(0, old)
                await cluster.stop_node(2)
                writer = TwoPhaseWriter(arr, client_id="t")
                skipped = await writer.write_stripe(0, new)
                assert skipped == [2]
                assert arr.dirty_stripes == {0: {2}}
                live = [c for c in range(code.n_cols) if c != 2]
                assert_atomic(cluster, 0, old, new, columns=live)

        asyncio.run(run())
