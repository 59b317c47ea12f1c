"""A degraded read and a rebuild window decode a run of stripes at once.

Stripes that lost the same columns, and whose strips of each column the
decode reads came in as consecutive rows of one reply frame, decode as
one batch: the code gets each such column as those rows, ``[rows, n,
element_size]``, and binds its plan once for the run.  A stripe that
cannot join its neighbours is a run of its own: one whose strip was
fetched again or rotted, and every stripe of a code with no XOR
schedule; a frame split at ``MAX_FRAME_BYTES``, or a column spread over
nodes, ends a run.  Each drill counts the stripes of each
``code.decode`` call and checks the bytes read or rebuilt.
"""

import asyncio
import random

from repro.array.faults import NetworkFaultPlan
from repro.cluster import LocalCluster, RebuildScheduler, protocol
from repro.codes import make_code
from repro.engine.kernels import KernelPlan
from repro.sim import MemoryTransport, VirtualClock
from tests.cluster.conftest import FAST_POLICY, elastic_sim_cluster, payload_for, sim_cluster

SIZE = 1 << 20  # seven 168 KiB stripes at k=6, p=7 and 4 KiB elements


def decode_calls(code) -> list[int]:
    """Record, per ``code.decode`` call, the stripes it decoded: 1 for a
    stripe buffer or a stripe's columns, ``n`` for a batch's columns
    ``[rows, n, ...]``."""
    calls: list[int] = []
    decode = code.decode

    def recording(buf, erasures):
        if isinstance(buf, list):
            column = next(c for c in buf if c is not None)
            calls.append(column.shape[1] if column.ndim == 3 else 1)
        else:
            calls.append(1)
        return decode(buf, erasures)

    code.decode = recording
    return calls


async def degraded_read(fault=None) -> tuple[list[int], object]:
    """A 1 MiB read with data node 1 stopped, after ``fault(cluster)``."""
    code, cluster = sim_cluster(k=6, p=7, element_size=4096, n_stripes=8)
    async with cluster:
        arr = cluster.array(policy=FAST_POLICY)
        data = random.Random(7).randbytes(SIZE)
        await arr.write(0, data)
        await cluster.stop_node(1)
        if fault is not None:
            fault(cluster)
        calls = decode_calls(code)
        assert await arr.read(0, SIZE) == data
        assert arr.metrics.get("decodes") == 7  # one per stripe, however they ran
        return calls, arr.metrics


class TestDegradedRead:
    def test_a_1mib_read_binds_its_decode_once(self, monkeypatch):
        binds = []
        bind = KernelPlan._bind_columns

        def counting(plan, columns):
            binds.append(columns)
            return bind(plan, columns)

        monkeypatch.setattr(KernelPlan, "_bind_columns", counting)
        calls, _ = asyncio.run(degraded_read())
        assert calls == [7]
        assert len(binds) == 1  # was one per stripe, 7

    def test_a_strip_fetched_again_decodes_alone_between_two_runs(self):
        """A flip on the wire in stripe 3's strip of column 0: its second
        fetch lands in a frame of its own, so stripe 3 cannot share its
        neighbours' view of column 0."""

        def flip(cluster):
            cluster.nodes[0].faults = NetworkFaultPlan(corrupt_frames=1)

        calls, metrics = asyncio.run(degraded_read(flip))
        assert metrics.get("strip_refetches") == 1
        assert metrics.get("rot_erasures") == 0
        assert calls == [3, 1, 3]

    def test_a_rotted_strip_widens_its_stripe_alone(self):
        """Stripe 3's strip of column 0 rotted at rest: stripe 3 loses
        two columns, fetches Q besides, and decodes its own pattern."""

        def rot(cluster):
            cluster.nodes[0].disk.corrupt(3, seed=1)

        calls, metrics = asyncio.run(degraded_read(rot))
        assert metrics.get("rot_erasures") == 1
        assert calls == [3, 1, 3]

    def test_reed_solomon_decodes_stripe_by_stripe(self):
        async def run():
            code = make_code("reed-solomon", 4, element_size=64)
            cluster = LocalCluster(code, 6, transport=MemoryTransport(), clock=VirtualClock())
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=3)
                await arr.write(0, data)
                await cluster.stop_node(2)
                calls = decode_calls(code)
                assert await arr.read(0, arr.capacity) == data
                return calls

        assert asyncio.run(run()) == [1] * 6

    def test_a_column_spread_over_nodes_decodes_a_frame_at_a_time(self):
        """Under rendezvous placement a column's strips come from several
        nodes, one frame each: no run crosses from one frame to the
        next, and every byte reads back."""

        async def run():
            code, cluster = elastic_sim_cluster(n_stripes=24)
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                data = payload_for(arr, seed=4)
                await arr.write(0, data)
                await cluster.stop_node(0)
                calls = decode_calls(code)
                assert await arr.read(0, arr.capacity) == data
                lost = [s for s in range(arr.n_stripes) if 0 in arr.holders(s)[: code.k]]
                return calls, lost

        calls, lost = asyncio.run(run())
        assert sum(calls) == len(lost) > 0
        assert len(calls) > 1  # the stripes lost column by column


class TestRebuildWindow:
    def test_frames_split_at_the_limit_decode_as_runs_of_the_frame(self, monkeypatch):
        """Two strips to a frame: each window of four decodes as two runs
        of two, into the one rebuilt-column buffer."""
        code, cluster = sim_cluster(n_stripes=8)
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 2 * code.strip_bytes)

        async def run():
            async with cluster:
                arr = cluster.array(policy=FAST_POLICY)
                await arr.write(0, payload_for(arr, seed=5))
                lost = cluster.nodes[2].disk
                await cluster.stop_node(2)
                spare = await cluster.start_replacement(2)
                calls = decode_calls(code)
                assert await RebuildScheduler(arr, batch_stripes=4).rebuild_column(2, spare) == 8
                for strip in range(8):
                    assert (cluster.replacements[2].disk.read_strip(strip)
                            == lost.read_strip(strip)).all()
                return calls

        assert asyncio.run(run()) == [2, 2, 2, 2]
