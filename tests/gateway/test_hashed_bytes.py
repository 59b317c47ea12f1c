"""Bytes hashed per user byte by a gateway put and get.

Every CRC-32 in the stack, client, node and gateway alike, goes through
``zlib.crc32`` looked up on the module, so a wrapper there counts them
all.  The geometry is the bulk benchmark's: k=6, p=7 and 4 KiB
elements, so 28 KiB strips and 168 KiB stripes; the cache is off, and
a 1 MiB object is written over an existing one, then read.  The
``hashed`` fixture (``tests/conftest.py``) counts the bytes; the alias
sanitizer, when it is on, fingerprints payloads through ``zlib.crc32``
as well, which is instrumentation, not the program's hashing, and is
not counted.

A put hashes the user's bytes once (a piece that fills a strip is the
CRC its put lists, and P's folds from the data strips'), Q once, and
each node checks what it stores: about 2.8.  A get hashes each data
strip where it lands and the one packed extent: about 1.3.
"""

import asyncio
import random

import pytest

from .conftest import sim_gateway

SIZE = 1 << 20


@pytest.mark.parametrize("lost", [None, 1], ids=["healthy", "one-data-column-down"])
def test_a_1mib_put_and_get_hash_each_byte_about_once_per_hop(hashed, lost):
    rng = random.Random(7)
    first, second = rng.randbytes(SIZE), rng.randbytes(SIZE)
    counts = {}

    async def main():
        async with sim_gateway(
            k=6, p=7, element_size=4096, n_stripes=16, cache_stripes=0
        ) as (gw, _arr, cluster):
            await gw.put("obj", first)
            if lost is not None:
                await cluster.stop_node(lost)
            hashed[0] = 0
            await gw.put("obj", second)
            counts["put"] = hashed[0] / SIZE
            hashed[0] = 0
            assert await gw.get("obj") == second
            counts["get"] = hashed[0] / SIZE

    asyncio.run(main())
    if lost is None:
        assert counts["put"] <= 3.0
        assert counts["get"] <= 1.3
    else:
        # A stripe that lost a data column fetches P in its place and
        # hashes the decoded strip once: one strip more per stripe.
        assert counts["get"] <= 1.5
