"""``read_spans`` returns the bytes written, and their CRC-32, for any
batch of spans in any state a read decodes around.

A strip that passes its check stays a view of its reply frame and each
span is joined straight from those views; a stripe that lost a data
column decodes from the same views, into a fresh array per column it
rebuilds.  The spans are drawn at random -- empty, unaligned, crossing
stripes, several in one stripe -- over a healthy array, and over one
with a node stopped, a node behind an open circuit breaker, a strip
behind a latent sector, a strip rotted at rest, or two columns lost (a
stopped node and a strip rotted in another column).  Hypothesis runs
derandomized, so the suite stays deterministic.
"""

import asyncio
import random
import zlib

from hypothesis import given, settings, strategies as st

from repro.cluster.health import BreakerState, CircuitBreaker

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


@st.composite
def two_lost(draw):
    """A stopped data node, and a strip rotted in another column that a
    read of its stripe fetches: another data column, or P."""
    stopped = draw(st.integers(0, K - 1))
    rotted = draw(st.sampled_from([c for c in range(K + 1) if c != stopped]))
    return "two-lost", draw(st.integers(0, N_STRIPES - 1)), (stopped, rotted)


states = st.one_of(
    st.just(("healthy", None, None)),
    st.tuples(st.just("stopped"), st.none(), st.integers(0, K + 1)),
    st.tuples(st.just("breaker"), st.none(), st.integers(0, K + 1)),
    st.tuples(st.just("latent"), st.integers(0, N_STRIPES - 1), st.integers(0, K + 1)),
    st.tuples(st.just("rotted"), st.integers(0, N_STRIPES - 1), st.integers(0, K - 1)),
    two_lost(),
)


def open_breaker(arr, node_id, clock) -> None:
    """Install an OPEN breaker for ``node_id`` that stays open."""
    breaker = CircuitBreaker(clock, failure_threshold=1, reset_timeout=1e9)
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    arr.breakers[node_id] = breaker


@settings(derandomize=True, max_examples=160, deadline=None)
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
            elif kind == "breaker":
                await cluster.stop_node(col)
                open_breaker(arr, col, cluster.clock)
            elif kind == "latent":
                cluster.nodes[col].disk.mark_latent_error(stripe)
            elif kind == "rotted":
                cluster.nodes[col].disk.corrupt(stripe, seed=3)
            elif kind == "two-lost":
                stopped, rotted = col
                cluster.nodes[rotted].disk.corrupt(stripe, seed=3)
                await cluster.stop_node(stopped)
            got = await arr.read_spans(spans)
            return data, got, arr.dirty_stripes, arr.metrics.get("breaker_short_circuits")

    data, got, dirty, short_circuits = asyncio.run(run())
    want = [data[offset : offset + length] for offset, length in spans]
    assert [bytes_ for bytes_, _ in got] == want
    assert all(type(bytes_) is bytes for bytes_, _ in got)
    assert [crc for _, crc in got] == [zlib.crc32(b) for b in want]
    sdb = CAPACITY // N_STRIPES
    rot_read = kind in ("rotted", "two-lost") and any(
        length and offset // sdb <= stripe <= (offset + length - 1) // sdb
        for offset, length in spans
    )
    rotted = col[1] if kind == "two-lost" else col
    assert dirty == ({stripe: {rotted}} if rot_read else {})
    if kind == "breaker":  # planned around: never asked, never short-circuited
        assert short_circuits == 0


def test_a_read_plans_around_an_open_breaker_in_one_fetch_round():
    """With data node 1 stopped and its breaker open, a 1 MiB read asks
    for P in its first and only round: one ``get`` fan-out of k RPCs,
    and no request reaches the breaker to be short-circuited."""

    async def run():
        code, cluster = sim_cluster(k=6, p=7, element_size=4096, n_stripes=8)
        async with cluster:
            arr = cluster.array(policy=FAST_POLICY)
            data = random.Random(7).randbytes(1 << 20)
            await arr.write(0, data)
            await cluster.stop_node(1)
            open_breaker(arr, 1, cluster.clock)
            fan_outs = []
            fan_out = arr._fan_out

            async def counted(verb, plan, *args):
                fan_outs.append((verb, [col for col, _ in plan]))
                return await fan_out(verb, plan, *args)

            arr._fan_out = counted
            sent = arr.metrics.get("requests")
            ((got, crc),) = await arr.read_spans([(0, len(data))])
            assert (got, crc) == (data, zlib.crc32(data))
            assert fan_outs == [("get", [0, 2, 3, 4, 5, code.p_col])]
            assert arr.metrics.get("requests") - sent == code.k
            assert arr.metrics.get("breaker_short_circuits") == 0
            assert arr.metrics.get("decodes") == 7  # one per stripe

    asyncio.run(run())
