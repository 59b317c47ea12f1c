"""The object gateway: round trips, layout edge cases, integrity,
shadow-write replacement, and concurrency over shared stripes."""

import asyncio

import pytest

from repro.gateway import Extent, NoSpaceError, ObjectNotFoundError
from repro.gateway.objstore import IntegrityError

from .conftest import STRIPE_BYTES, sim_gateway


def run(coro):
    return asyncio.run(coro)


class TestRoundTrip:
    def test_put_get_stat_list(self):
        async def main():
            async with sim_gateway() as (gw, _arr, _cluster):
                data = bytes(range(256)) * 4
                stat = await gw.put("a", data)
                assert (stat.name, stat.size) == ("a", len(data))
                assert await gw.get("a") == data
                assert (await gw.stat("a")).crc == stat.crc
                await gw.put("b", b"tiny")
                names = [s.name for s in await gw.list_objects()]
                assert names == ["a", "b"]

        run(main())

    def test_zero_length_object(self):
        async def main():
            async with sim_gateway() as (gw, _arr, _cluster):
                stat = await gw.put("empty", b"")
                assert (stat.size, stat.n_extents, stat.stripes) == (0, 0, ())
                assert await gw.get("empty") == b""
                assert gw.free_bytes == gw.allocator.capacity

        run(main())

    def test_exact_stripe_fill_uses_one_extent(self):
        async def main():
            async with sim_gateway() as (gw, _arr, _cluster):
                data = bytes(i % 251 for i in range(STRIPE_BYTES))
                stat = await gw.put("full", data)
                assert stat.n_extents == 1
                assert await gw.get("full") == data

        run(main())

    def test_large_object_spans_three_stripes(self):
        async def main():
            async with sim_gateway() as (gw, _arr, _cluster):
                data = bytes(i % 253 for i in range(2 * STRIPE_BYTES + 100))
                stat = await gw.put("big", data)
                assert len(stat.stripes) == 3
                assert await gw.get("big") == data

        run(main())

    def test_missing_and_deleted_objects_raise(self):
        async def main():
            async with sim_gateway() as (gw, _arr, _cluster):
                with pytest.raises(ObjectNotFoundError):
                    await gw.get("never")
                await gw.put("gone", b"x" * 50)
                await gw.delete("gone")
                with pytest.raises(ObjectNotFoundError):
                    await gw.get("gone")
                with pytest.raises(ObjectNotFoundError):
                    await gw.delete("gone")

        run(main())

    def test_delete_frees_extents_for_reuse(self):
        async def main():
            async with sim_gateway(n_stripes=2) as (gw, _arr, _cluster):
                await gw.put("a", b"a" * (2 * STRIPE_BYTES))
                with pytest.raises(NoSpaceError):
                    await gw.put("b", b"b")
                await gw.delete("a")
                await gw.put("b", b"b" * (2 * STRIPE_BYTES))
                assert (await gw.get("b"))[:1] == b"b"

        run(main())


class TestOverwrite:
    def test_shrinking_overwrite_returns_space(self):
        async def main():
            async with sim_gateway() as (gw, _arr, _cluster):
                await gw.put("x", b"A" * (2 * STRIPE_BYTES + 100))
                free_large = gw.free_bytes
                stat = await gw.put("x", b"B" * 64)
                assert gw.free_bytes == free_large + 2 * STRIPE_BYTES + 100 - 64
                assert stat.size == 64
                assert await gw.get("x") == b"B" * 64

        run(main())

    def test_overwrite_bumps_version(self):
        async def main():
            async with sim_gateway() as (gw, _arr, _cluster):
                v1 = (await gw.put("x", b"one")).version
                v2 = (await gw.put("x", b"two")).version
                assert v2 > v1

        run(main())


class TestUpdate:
    def test_rmw_update_patches_in_place(self):
        async def main():
            async with sim_gateway() as (gw, _arr, _cluster):
                base = bytearray(b"\x00" * 500)
                await gw.put("x", bytes(base))
                before = await gw.stat("x")
                await gw.update("x", 100, b"\xff" * 32)
                base[100:132] = b"\xff" * 32
                assert await gw.get("x") == bytes(base)
                after = await gw.stat("x")
                # Size and layout are stable; contents and CRC moved.
                assert after.size == before.size
                assert after.stripes == before.stripes
                assert after.crc != before.crc

        run(main())

    def test_update_cannot_grow_an_object(self):
        async def main():
            async with sim_gateway() as (gw, _arr, _cluster):
                await gw.put("x", b"12345678")
                with pytest.raises(ValueError):
                    await gw.update("x", 6, b"abc")
                with pytest.raises(ValueError):
                    await gw.update("x", -1, b"a")

        run(main())

    def test_two_objects_packed_in_one_stripe_update_independently(self):
        async def main():
            async with sim_gateway() as (gw, _arr, _cluster):
                await gw.put("left", b"L" * 100)
                await gw.put("right", b"R" * 100)
                sl, sr = await gw.stat("left"), await gw.stat("right")
                assert sl.stripes == sr.stripes  # genuinely share a stripe
                # Interleave concurrent updates of the shared stripe:
                # per-stripe locking must prevent RMW lost-updates.
                await asyncio.gather(
                    gw.update("left", 0, b"l" * 50),
                    gw.update("right", 50, b"r" * 50),
                )
                assert await gw.get("left") == b"l" * 50 + b"L" * 50
                assert await gw.get("right") == b"R" * 50 + b"r" * 50

        run(main())


class TestIntegrity:
    def test_corruption_beneath_the_gateway_raises_integrity_error(self):
        async def main():
            async with sim_gateway() as (gw, arr, _cluster):
                await gw.put("x", b"P" * 200)
                meta = gw.index["x"]
                ext = meta.extents[0]
                off = ext.stripe * gw.stripe_bytes + ext.start
                # A raw write under the gateway: the cluster stores it
                # faithfully (parity and all), so only the gateway's
                # end-to-end CRC can notice the object changed.
                await arr.write(off, b"Q")
                with pytest.raises(IntegrityError):
                    await gw.get("x")
                assert gw.metrics.counter("gateway_integrity_errors").value == 1

        run(main())

    @pytest.mark.parametrize("size", [2 * STRIPE_BYTES, 200], ids=["whole", "packed"])
    def test_an_extent_mapped_to_the_wrong_stripe_raises_integrity_error(self, size):
        """A get folds its check from the CRCs each strip was checked
        with, not from the object's bytes; an extent that names another
        stripe still fails it, whether it covers that stripe whole (its
        folded CRC) or part of it (hashed)."""

        async def main():
            async with sim_gateway() as (gw, _arr, _cluster):
                await gw.put("other", bytes(range(256)) * 8)
                await gw.put("x", b"x" * size)
                meta = gw.index["x"]
                ext = meta.extents[0]
                wrong = next(s for s in gw.index["other"].stripes if s != ext.stripe)
                meta.extents[0] = Extent(wrong, ext.start, ext.length)
                with pytest.raises(IntegrityError):
                    await gw.get("x")
                meta.extents[0] = ext
                assert await gw.get("x") == b"x" * size

        run(main())


class TestDegraded:
    def test_get_survives_two_lost_columns(self):
        async def main():
            async with sim_gateway() as (gw, _arr, cluster):
                data = bytes(i % 249 for i in range(1500))
                await gw.put("x", data)
                await cluster.stop_node(0)
                await cluster.stop_node(3)
                gw.cache.clear()  # force the degraded read path
                assert await gw.get("x") == data

        run(main())


class TestCacheConsistency:
    def test_gateway_writes_invalidate_cached_stripes(self):
        async def main():
            async with sim_gateway() as (gw, _arr, _cluster):
                await gw.put("x", b"old " * 100)
                await gw.get("x")  # populate the cache
                assert gw.metrics.counter("cache_misses").value >= 1
                await gw.put("x", b"new " * 100)
                assert await gw.get("x") == b"new " * 100

        run(main())

    def test_hot_reads_hit_the_cache(self):
        async def main():
            async with sim_gateway() as (gw, _arr, _cluster):
                await gw.put("x", b"h" * 300)
                for _ in range(5):
                    await gw.get("x")
                assert gw.metrics.counter("cache_hits").value >= 4

        run(main())


class TestStats:
    def test_stats_snapshot_tracks_directory_and_space(self):
        async def main():
            async with sim_gateway() as (gw, _arr, _cluster):
                await gw.put("a", b"a" * 100)
                await gw.put("b", b"b" * 200)
                snap = gw.stats()
                assert snap["objects"] == 2
                assert snap["bytes_stored"] == 300
                assert snap["free_bytes"] == snap["capacity"] - 300

        run(main())
