"""``read_spans`` returns the bytes written, and their CRC-32, for any
batch of spans in any state a read decodes around.

A strip that passes its check stays a view of its reply frame and each
span is joined straight from those views; only a stripe that lost a
data column is copied into a buffer and decoded.  The spans are drawn
at random -- empty, unaligned, crossing stripes, several in one stripe
-- over a healthy array, and over one with a node stopped, a strip
behind a latent sector or a strip rotted at rest.  Hypothesis runs
derandomized, so the suite stays deterministic.
"""

import asyncio
import zlib

from hypothesis import given, settings, strategies as st

from tests.cluster.conftest import FAST_POLICY, payload_for, sim_cluster

K, N_STRIPES = 3, 4  # 320-byte strips, 960-byte stripe payloads
CAPACITY = N_STRIPES * K * 5 * 64


@st.composite
def span_batches(draw):
    batch = []
    for _ in range(draw(st.integers(1, 5))):
        offset = draw(st.integers(0, CAPACITY))
        batch.append((offset, draw(st.integers(0, CAPACITY - offset))))
    return batch


states = st.one_of(
    st.just(("healthy", None, None)),
    st.tuples(st.just("stopped"), st.none(), st.integers(0, K + 1)),
    st.tuples(st.just("latent"), st.integers(0, N_STRIPES - 1), st.integers(0, K + 1)),
    st.tuples(st.just("rotted"), st.integers(0, N_STRIPES - 1), st.integers(0, K - 1)),
)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(span_batches(), states)
def test_every_span_reads_back_what_was_written(spans, state):
    kind, stripe, col = state

    async def run():
        code, cluster = sim_cluster(k=K, n_stripes=N_STRIPES)
        async with cluster:
            arr = cluster.array(policy=FAST_POLICY)
            assert arr.capacity == CAPACITY
            data = payload_for(arr)
            await arr.write(0, data)
            if kind == "stopped":
                await cluster.stop_node(col)
            elif kind == "latent":
                cluster.nodes[col].disk.mark_latent_error(stripe)
            elif kind == "rotted":
                cluster.nodes[col].disk.corrupt(stripe, seed=3)
            return data, await arr.read_spans(spans), arr.dirty_stripes

    data, got, dirty = asyncio.run(run())
    want = [data[offset : offset + length] for offset, length in spans]
    assert [bytes_ for bytes_, _ in got] == want
    assert all(type(bytes_) is bytes for bytes_, _ in got)
    assert [crc for _, crc in got] == [zlib.crc32(b) for b in want]
    sdb = CAPACITY // N_STRIPES
    rot_read = kind == "rotted" and any(
        length and offset // sdb <= stripe <= (offset + length - 1) // sdb
        for offset, length in spans
    )
    assert dirty == ({stripe: {col}} if rot_read else {})
