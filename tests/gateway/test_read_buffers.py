"""Stripe buffers a gateway get allocates on the client.

Liberation codes are systematic, so a stripe that lost no data column
needs no stripe buffer: the read joins each span straight from its
strips as they came off the wire, each a view of its reply frame.  A
stripe that lost a data column needs none either: it decodes from those
views where they are, into a fresh array for each column it rebuilds,
and the spans join the decoded strips with the views.  So a get
allocates a stripe buffer for no stripe, healthy or degraded.  The
client makes a stripe buffer through ``ClusterArray._stripe_buffer``
(unfilled; the writes use it) or ``code.alloc_stripe`` (zero-filled;
``read_stripe`` and the stripes a write falls back to), and the test
counts both.  The geometry is the bulk benchmark's: k=6, p=7 and 4 KiB
elements, so a 1 MiB object spans 7 stripes of 168 KiB; the cache is
off.
"""

import asyncio
import random

import pytest

from repro.cluster import ClusterArray

from .conftest import sim_gateway

SIZE = 1 << 20


def counted(monkeypatch, owner, name: str, made: list) -> None:
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        made.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


@pytest.mark.parametrize("lost", [None, 1], ids=["healthy", "one-data-column-down"])
def test_a_1mib_get_allocates_a_buffer_only_for_each_stripe_that_decodes(
    monkeypatch, lost
):
    data = random.Random(7).randbytes(SIZE)
    made: list[str] = []

    async def main():
        async with sim_gateway(
            k=6, p=7, element_size=4096, n_stripes=16, cache_stripes=0
        ) as (gw, arr, cluster):
            await gw.put("obj", data)
            stripes = (await gw.stat("obj")).stripes
            if lost is not None:
                await cluster.stop_node(lost)
            counted(monkeypatch, ClusterArray, "_stripe_buffer", made)
            counted(monkeypatch, arr.code, "alloc_stripe", made)
            assert await gw.get("obj") == data
            return stripes, arr.metrics.get("decodes")

    stripes, decodes = asyncio.run(main())
    assert len(stripes) == 7
    assert made == []
    assert decodes == (0 if lost is None else len(stripes))
