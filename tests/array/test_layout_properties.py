"""Property-based tests for stripe layouts and byte addressing."""

from hypothesis import given, settings, strategies as st

from repro.array.layout import DeclusteredLayout, StripeLayout

layout_params = st.tuples(
    st.integers(2, 12),  # k
    st.integers(1, 8),  # rows
    st.sampled_from([8, 16, 64]),  # element size
    st.integers(1, 12),  # stripes
)


class TestStripeLayoutProperties:
    @settings(max_examples=60, deadline=None)
    @given(params=layout_params)
    def test_element_addressing_bijective(self, params):
        k, rows, elem, stripes = params
        lay = StripeLayout(k, rows, elem, stripes)
        seen = set()
        for idx in range(lay.n_elements()):
            a = lay.element_address(idx)
            key = (a.stripe, a.column, a.row)
            assert key not in seen
            seen.add(key)
            assert 0 <= a.column < k and 0 <= a.row < rows
            assert a.disk == lay.disk_for(a.stripe, a.column)
        assert len(seen) == lay.n_elements()

    @settings(max_examples=60, deadline=None)
    @given(params=layout_params, data=st.data())
    def test_byte_ranges_partition_exactly(self, params, data):
        k, rows, elem, stripes = params
        lay = StripeLayout(k, rows, elem, stripes)
        cap = lay.capacity_bytes
        offset = data.draw(st.integers(0, cap - 1))
        length = data.draw(st.integers(0, cap - offset))
        pieces = lay.byte_range_elements(offset, length)
        assert sum(hi - lo for (_a, lo, hi) in pieces) == length
        # Pieces are contiguous in logical byte order.
        pos = offset
        for addr, lo, hi in pieces:
            idx = (
                addr.stripe * k * rows + addr.column * rows + addr.row
            )
            assert idx * elem + lo == pos
            pos += hi - lo

    @settings(max_examples=60, deadline=None)
    @given(params=layout_params, stripe=st.integers(0, 1000))
    def test_rotation_is_bijection_per_stripe(self, params, stripe):
        k, rows, elem, stripes = params
        lay = StripeLayout(k, rows, elem, stripes)
        s = stripe % stripes
        disks = [lay.disk_for(s, c) for c in range(k + 2)]
        assert sorted(disks) == list(range(k + 2))


class TestDeclusteredLayoutProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        params=layout_params,
        extra=st.integers(0, 6),
        seed=st.integers(0, 100),
    )
    def test_mapping_consistency(self, params, extra, seed):
        k, rows, elem, stripes = params
        pool = k + 2 + extra
        lay = DeclusteredLayout(k, rows, elem, stripes, n_pool=pool, seed=seed)
        for s in range(stripes):
            cols_seen = set()
            for d in range(pool):
                c = lay.column_for(s, d)
                if c is not None:
                    assert lay.disk_for(s, c) == d
                    cols_seen.add(c)
            assert cols_seen == set(range(k + 2))

    @settings(max_examples=40, deadline=None)
    @given(params=layout_params, seed=st.integers(0, 100))
    def test_stripes_on_disk_partition(self, params, seed):
        k, rows, elem, stripes = params
        pool = k + 4
        lay = DeclusteredLayout(k, rows, elem, stripes, n_pool=pool, seed=seed)
        total = sum(len(lay.stripes_on_disk(d)) for d in range(pool))
        assert total == stripes * (k + 2)
