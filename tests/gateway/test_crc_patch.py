"""The object CRC an update patches instead of re-reading the object.

CRC-32 is affine, so the CRC of a patched object follows from the old
CRC and the bytes the patch replaced; :func:`crc32_patch` must equal
``zlib.crc32`` of the patched object for every size, offset and length.
"""

import asyncio
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.crc import crc32_patch

from .conftest import sim_gateway


@st.composite
def patches(draw):
    """An object of 0-4 KiB and a span of it (the whole object, often)."""
    size = draw(st.integers(0, 4096))
    blob = draw(st.binary(min_size=size, max_size=size))
    if draw(st.booleans()):
        offset, length = 0, size
    else:
        offset = draw(st.integers(0, size))
        length = draw(st.integers(0, size - offset))
    new = draw(st.binary(min_size=length, max_size=length))
    return blob, offset, new


@settings(max_examples=300, deadline=None)
@given(patches())
def test_the_patched_crc_is_the_crc_of_the_patched_object(case):
    blob, offset, new = case
    old = blob[offset : offset + len(new)]
    patched = blob[:offset] + new + blob[offset + len(new) :]
    assert crc32_patch(zlib.crc32(blob), len(blob), offset, old, new) == zlib.crc32(patched)


@pytest.mark.parametrize("offset,old,new", [(0, b"ab", b"a"), (3, b"ab", b"cd")])
def test_a_patch_that_does_not_fit_is_refused(offset, old, new):
    with pytest.raises(ValueError):
        crc32_patch(0, 4, offset, old, new)


def test_an_update_reads_no_more_of_the_object_than_it_rewrites():
    """A cache-cold update of a one-stripe object fetches only the data
    strip it patches, and the object still verifies afterwards."""

    async def main():
        async with sim_gateway() as (gw, arr, cluster):
            body = bytes(range(256)) * 3
            await gw.put("obj", body)
            gw.cache.clear()
            gets = sum(node.metrics.get("requests_get") for node in cluster.nodes)
            stat = await gw.update("obj", 400, b"\x00" * 100)
            assert sum(node.metrics.get("requests_get") for node in cluster.nodes) == gets + 1
            want = body[:400] + b"\x00" * 100 + body[500:]
            assert stat.crc == zlib.crc32(want)
            gw.cache.clear()
            assert await gw.get("obj") == want

    asyncio.run(main())
