#!/usr/bin/env python3
"""The distributed array in one minute.

Starts ``k + 2`` strip nodes in-process (one asyncio TCP server per
column -- the same servers ``python -m repro.cli serve`` runs across
machines), stripes data over them, then plays the §I storyline at
cluster scale: kill two nodes outright, read every byte back through
degraded decoding, rebuild both columns onto replacement nodes in the
background, and prove redundancy is fully restored by killing two
*different* nodes.

Run:  python examples/cluster_quickstart.py
"""

import asyncio

import numpy as np

from repro import ClusterArray, LocalCluster, RebuildScheduler, RetryPolicy, make_code


async def demo() -> None:
    code = make_code("liberation-optimal", 4, p=5, element_size=512)
    policy = RetryPolicy(attempts=2, timeout=0.5, backoff=0.02)

    async with LocalCluster(code, n_stripes=16) as cluster:
        arr = cluster.array(policy=policy)
        print(f"cluster: {code.k}+2 strip nodes on loopback, "
              f"{arr.capacity // 1024} KiB user capacity, p = {code.p}")
        for col, (host, port) in enumerate(cluster.addresses):
            role = "P" if col == code.p_col else "Q" if col == code.q_col else f"d{col}"
            print(f"  column {role:>2} -> {host}:{port}")

        data = np.random.default_rng(42).bytes(arr.capacity)
        await arr.write(0, data)
        print(f"\nwrote {len(data)} bytes "
              f"({arr.metrics.get('full_stripe_writes')} full-stripe writes)")

        # Two failure domains go dark.
        victims = [1, code.p_col]
        for col in victims:
            await cluster.stop_node(col)
        print(f"killed nodes for columns {victims} -> {await arr.ping()}")

        back = await arr.read(0, arr.capacity)
        assert back == data, "degraded read corrupted data!"
        print("degraded read: every byte intact "
              f"(decodes={arr.metrics.get('decodes')}, "
              f"retries={arr.metrics.get('retries')})")

        # Background rebuild onto fresh nodes, while the array serves.
        for col in victims:
            address = await cluster.start_replacement(col)
            scheduler = RebuildScheduler(arr, batch_stripes=4)
            scheduler.start(col, address)
            await arr.read(0, 2048)  # traffic keeps flowing mid-rebuild
            rebuilt = await scheduler.wait()
            cluster.promote_replacement(col)
            done, total = scheduler.progress
            print(f"rebuilt column {col}: {rebuilt} stripes ({done}/{total})")

        assert all(await arr.ping()), "replacement nodes not serving"

        # Full redundancy restored: a *different* double failure decodes.
        for col in (0, code.q_col):
            await cluster.stop_node(col)
        assert await arr.read(0, arr.capacity) == data
        print("\nkilled two different nodes -> data still byte-identical: "
              "redundancy fully restored")

        stats = await arr.stats()
        live = [n for n in stats["nodes"] if n is not None]
        served = sum(n["stats"]["counters"].get("requests_get", 0) for n in live)
        print(f"stats: {len(live)} nodes reachable, {served} GET requests served, "
              f"client counters {stats['client']['counters']}")


def main() -> None:
    asyncio.run(demo())


if __name__ == "__main__":
    main()
