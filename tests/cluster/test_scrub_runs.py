"""The scrub decodes its damaged stripes in runs, as a read does.

A window's stripes that lost the same columns, and whose strips of each
column the decode reads came in as consecutive rows of one reply frame,
decode as one batch (``ClusterArray._decode_landed``); the decoded
strips go back to their nodes as they are.  The Hypothesis drill mixes
stale columns, rotted strips and latent strips in each window, at most
two per stripe, so a window splits into several runs; it runs
derandomized, so the suite stays deterministic.
"""

import asyncio

from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterScrubber
from tests.cluster.conftest import FAST_POLICY, payload_for, sim_cluster
from tests.cluster.test_decode_runs import decode_calls


def test_a_window_of_stale_stripes_decodes_as_one_run():
    """Column 1 missed a rewrite of all 16 stripes: each window of 8
    decodes as one batch, where each stripe was one decode."""

    async def run():
        code, cluster = sim_cluster(k=6, p=7, element_size=4096, n_stripes=16)
        async with cluster:
            arr = cluster.array(policy=FAST_POLICY)
            await arr.write(0, payload_for(arr, seed=1))
            await cluster.stop_node(1)
            data = payload_for(arr, seed=2)
            await arr.write(0, data)
            assert arr.dirty_stripes == {s: {1} for s in range(16)}
            await cluster.restart_node(1)
            arr.replace_node(1, cluster.nodes[1].address)
            calls = decode_calls(code)
            report = await ClusterScrubber(arr, window=8).scrub()
            assert calls == [8, 8]
            assert report.corrected == [(s, 1) for s in range(16)]
            assert report.healthy
            assert arr.metrics.get("decodes") == 16
            assert arr.dirty_stripes == {}
            assert await arr.read(0, arr.capacity) == data
            deep = await ClusterScrubber(arr, window=8).scrub(deep=True)
            assert deep.healthy and deep.stripes_clean == 16

    asyncio.run(run())


K, N_STRIPES, WINDOW = 3, 8, 4
KINDS = ("stale", "rotted", "latent")


@st.composite
def damage(draw):
    """Per stripe, up to two damaged strips in distinct columns, each
    stale (a rewrite missed it), rotted at rest or behind a latent
    sector.  A window's stripes often share one mix, so some of them
    decode together."""
    hits = st.lists(
        st.tuples(st.sampled_from(KINDS), st.integers(0, K + 1)),
        max_size=2, unique_by=lambda hit: hit[1],
    )
    plan = {}
    for first in range(0, N_STRIPES, WINDOW):
        shared = draw(hits)
        for stripe in range(first, first + WINDOW):
            plan[stripe] = draw(st.one_of(st.just(shared), hits))
    return plan


@settings(derandomize=True, max_examples=60, deadline=None)
@given(damage())
def test_a_scrub_repairs_every_mix_of_damage(plan):
    async def run():
        code, cluster = sim_cluster(k=K, n_stripes=N_STRIPES)
        async with cluster:
            arr = cluster.array(policy=FAST_POLICY)
            sdb = arr.stripe_data_bytes
            data = bytearray(payload_for(arr, seed=1))
            await arr.write(0, bytes(data))
            # Stripes that must miss the same columns are rewritten
            # together, with those nodes stopped.
            groups: dict[tuple, list[int]] = {}
            for stripe, hits in plan.items():
                stale = tuple(col for kind, col in hits if kind == "stale")
                if stale:
                    groups.setdefault(stale, []).append(stripe)
            fresh = payload_for(arr, seed=2)
            for cols, stripes in groups.items():
                for col in cols:
                    await cluster.stop_node(col)
                for stripe in stripes:
                    at = stripe * sdb
                    data[at : at + sdb] = fresh[at : at + sdb]
                    await arr.write(at, fresh[at : at + sdb])
                for col in cols:
                    await cluster.restart_node(col)
                    arr.replace_node(col, cluster.nodes[col].address)
            for stripe, hits in plan.items():
                for kind, col in hits:
                    if kind == "rotted":
                        cluster.nodes[col].disk.corrupt(stripe, seed=stripe)
                    elif kind == "latent":
                        cluster.nodes[col].disk.mark_latent_error(stripe)

            calls = decode_calls(code)
            report = await ClusterScrubber(arr, window=WINDOW).scrub()
            damaged = [s for s, hits in plan.items() if hits]
            assert sum(calls) == len(damaged)  # each damaged stripe decoded once
            assert report.healthy
            assert sorted({s for s, _ in report.corrected}) == damaged
            assert arr.dirty_stripes == {}
            assert await arr.read(0, arr.capacity) == bytes(data)
            deep = await ClusterScrubber(arr, window=WINDOW).scrub(deep=True)
            assert deep.healthy and deep.stripes_clean == N_STRIPES

    asyncio.run(run())
