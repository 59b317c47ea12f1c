"""Every fetched strip lands on the client as a view of its reply frame.

``ClusterArray._gather`` keeps each checked strip as a read-only byte
view of the frame it came in, in its stripe's ``LandedStrips``; a
caller that computes on whole stripes copies the strips it needs into a
stripe buffer.  Each drill records the payload of every ``get`` reply
and checks what ``_gather`` landed against them.
"""

import asyncio

import numpy as np

from repro.cluster import ClusterArray, ClusterScrubber
from repro.cluster.client import ClusterError, LandedStrips
from tests.cluster.conftest import FAST_POLICY, payload_for, sim_cluster


def record_landings(arr) -> list[list[int]]:
    """Record the columns ``_gather`` lands for each stripe, checking
    that each strip is a read-only view of a ``get`` reply's payload."""
    frames: list[np.ndarray] = []
    landed: list[list[int]] = []
    fan_out, gather = arr._fan_out, arr._gather

    async def recording_fan_out(verb, plan, *args):
        done = await fan_out(verb, plan, *args)
        if verb == "get":
            frames.extend(
                np.frombuffer(outcome[1], np.uint8)
                for _, _, outcome in done if not isinstance(outcome, ClusterError)
            )
        return done

    async def checking_gather(plan, into, crcs=None):
        lost = await gather(plan, into, crcs)
        for strips in into.values():
            assert isinstance(strips, LandedStrips)
            for strip in strips.values():
                assert not strip.flags.writeable
                assert any(np.shares_memory(strip, frame) for frame in frames)
            landed.append(sorted(strips))
        return lost

    arr._fan_out = recording_fan_out
    arr._gather = checking_gather
    return landed


def test_a_delta_write_copies_only_its_touched_strip_out_of_its_frame(monkeypatch):
    async def run():
        code, cluster = sim_cluster()
        async with cluster:
            arr = cluster.array(policy=FAST_POLICY)
            await arr.write(0, payload_for(arr))
            made = []
            blank = ClusterArray._stripe_buffer

            def marked(self):
                buf = blank(self)
                buf.view(np.uint8)[:] = 0xA5
                made.append(buf)
                return buf

            monkeypatch.setattr(ClusterArray, "_stripe_buffer", marked)
            landed = record_landings(arr)
            stripe, col = 2, 1
            at = stripe * arr.stripe_data_bytes + col * code.strip_bytes + 70
            await arr.write(at, b"\x5a" * 64)
            assert arr.metrics.get("delta_writes") == 1
            assert landed == [[col]]
            (buf,) = made
            for c in range(code.total_cols):
                if c != col:
                    assert (buf[c].view(np.uint8) == 0xA5).all(), c
            on_disk = cluster.nodes[col].disk.read_strip(stripe)
            assert np.array_equal(buf[col].reshape(-1), on_disk)

    asyncio.run(run())


def test_a_scrub_fetch_lands_views_and_copies_only_what_it_verifies():
    async def run():
        code, cluster = sim_cluster(n_stripes=4)
        async with cluster:
            arr = cluster.array(policy=FAST_POLICY)
            data = payload_for(arr)
            await arr.write(0, data)
            cluster.nodes[3].disk.corrupt(1, seed=5)  # one rotted strip
            copied = []
            alloc = code.alloc_stripe
            code.alloc_stripe = lambda: copied.append(1) or alloc()
            landed = record_landings(arr)
            report = await ClusterScrubber(arr).scrub(deep=True)
            assert report.corrected == [(1, 3)]
            full = list(range(code.n_cols))
            assert landed == [full, [0, 1, 2, 4], full, full]  # stripe 1 lost its rot
            assert len(copied) == arr.n_stripes - 1  # every stripe but the decoded one
            assert await arr.read(0, arr.capacity) == data

    asyncio.run(run())
