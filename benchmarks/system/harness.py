"""One run of one workload: set up, drive, verify, measure.

Everything -- generator, gateway, cluster client and all ``k + 2``
nodes -- shares one asyncio event loop in one thread, so the numbers
are the whole stack's cost per operation on one core (a second core,
where there is one, absorbs kernel and loopback work).

Latency is timed from when an op was *due*: for a closed-loop client
that is the previous op's completion, for the open loop its slot
``t0 + i / rate`` on an absolute schedule.  A stall therefore counts
against every op it delays, and the generator's own lateness is
reported rather than hidden.

The measured time is cut into stretches with a host-speed probe
(:mod:`hostspeed`) at both ends; every duration of a stretch is scaled
by its two probes, so end-to-end metrics read as at the host's
reference speed.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.client import ClusterError
from repro.cluster.health import HealthMonitor
from repro.cluster.local import LocalCluster
from repro.cluster.rebuild import RebuildScheduler
from repro.gateway.admission import Overloaded
from repro.gateway.objstore import GatewayError, ObjectGateway

import hostspeed
from hostspeed import HostProbe
from oracle import Oracle
from tracing import LAYERS, Recorder, fold, installed, now, pct
from workloads import (
    LOST_COLUMN, PRELOAD_STREAM, TAIL, Op, OpStream, Payloads, Workload, key_name,
)

#: set-ups per run; ``setup_s`` is their median
SETUPS = 5
#: warm-up before measuring: fills the cache, compiles decode plans
WARMUP_SHARE, WARMUP_MAX_S = 0.1, 1.0
#: length of one measured epoch (s); host-speed probes bracket each
EPOCH_S = 0.5
#: how long the degraded workload may wait for the lost node's breaker
BREAKER_WAIT_S = 10.0
#: share of the degraded workload's measured time spent rebuilding,
#: warm-up pass included (the rest serves gets), so a run lasts
#: ``--seconds`` at any rebuild speed
REBUILD_SHARE = 0.4
#: the open loop's last stretch before a due time is spent yielding
SPIN_S = 0.001

#: end-to-end metrics (``--trace 0``) and their units
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "get_p50_ms": "ms",
    "get_tail_ms": "ms",
    "write_p50_ms": "ms",
    "write_tail_ms": "ms",
}

#: per-layer metrics (``--trace 1``) and their units
LAYER_UNITS = {
    **{f"layer_ms.{layer}.{tag}": "ms" for layer in LAYERS for tag in ("mean", "p99")},
    "gateway.admission.wait_ms_p99": "ms",
    "gateway.admission.shed": "count",
    "gateway.cache.hit_ratio": "ratio",
    "gateway.cache.evictions_per_op": "1/op",
    "gateway.layout.stored_bytes_per_user_byte": "B/B",
    "cluster.client.rpcs_per_op": "1/op",
    "cluster.client.connects_per_op": "1/op",
    "cluster.client.retries_per_op": "1/op",
    "cluster.client.rpc_ms_p50": "ms",
    "cluster.client.rpc_ms_p99": "ms",
    "cluster.client.fanout_skew": "ratio",
    "cluster.protocol.frame_encode_us": "us",
    "cluster.protocol.read_frame_ms_p50": "ms",
    "cluster.protocol.wire_bytes_per_user_byte": "B/B",
    "cluster.node.dispatch_us_p50": "us",
    "array.disk.busy_us_per_op": "us/op",
    "array.disk.read_bytes_per_user_byte": "B/B",
    "array.disk.write_bytes_per_user_byte": "B/B",
    "codes.encode_gbps": "GB/s",
    "codes.decode_gbps": "GB/s",
    "codes.busy_share": "ratio",
    "codes.decodes": "count",
    "cluster.rebuild.ingress_bytes_per_rebuilt_byte": "B/B",
    "cluster.rebuild.decode_share": "ratio",
    "bench.generator.late_ms_p99": "ms",
    "bench.generator.backlog_end": "count",
    "trace.overhead": "ratio",
}


@dataclass
class Sample:
    kind: str
    due: float
    start: float
    end: float
    ok: bool
    #: the host-speed scale of the sample's stretch (1 where unprobed)
    scale: float = 1.0

    @property
    def latency(self) -> float:
        """Time from due to done, scaled to the host's reference speed."""
        return (self.end - self.due) * self.scale


@dataclass
class Window:
    """The ops of one measured window."""

    t0: float
    t1: float
    samples: list[Sample]
    backlog_end: int = 0
    scale: float = 1.0

    def ok(self) -> list[Sample]:
        return [s for s in self.samples if s.ok]

    def busy_s(self) -> float:
        """From the window's start to its last completion (unscaled)."""
        return max((s.end for s in self.samples), default=self.t1) - self.t0

    def mean_latency(self) -> float:
        ok = self.ok()
        return float(np.mean([s.latency for s in ok])) if ok else math.inf


def latencies(samples: list[Sample], kind: str) -> list[float]:
    return [s.latency for s in samples if s.kind == kind]


@dataclass
class Tally:
    attempted: int = 0
    errors: int = 0
    shed: int = 0


@dataclass
class Stack:
    cluster: LocalCluster
    array: object
    gateway: ObjectGateway
    monitor: HealthMonitor | None = None
    spares: list = field(default_factory=list)

    async def close(self) -> None:
        if self.monitor is not None:
            await self.monitor.stop()
        await self.cluster.stop()
        await asyncio.gather(*(n.stop() for n in self.spares if n.running))


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    info: dict
    examples: list[str]
    #: traced runs: each op's time (s) and its split by layer
    splits: list[tuple[float, dict[str, float]]] = field(default_factory=list)


# -- set-up -------------------------------------------------------------------


async def build(wl: Workload, payloads: Payloads, oracle: Oracle) -> Stack:
    """Start the cluster, wire the gateway (its defaults) and preload.

    The kernel plan compiles and is proven on the first encode, so the
    preload pays for it, as a fresh deployment would.
    """
    code = wl.geometry.make_code()
    cluster = LocalCluster(code, wl.geometry.n_stripes)
    await cluster.start()
    array = cluster.array()
    gateway = ObjectGateway(array)
    for i in range(wl.n_objects):
        key, data = key_name(i), payloads.body(PRELOAD_STREAM, i)
        oracle.issue_put(key, data)
        await gateway.put(key, data)
        oracle.ack_put(key, data)
    return Stack(cluster, array, gateway)


async def degrade(stack: Stack):
    """Lose a data column the way production would notice it.

    An observe-only :class:`HealthMonitor` (no spare) probes the nodes;
    once the stopped node's breaker opens, reads short-circuit straight
    to the decode path.  Returns the lost node's disk, the reference
    the rebuilt replacements are checked against.
    """
    stack.monitor = HealthMonitor(stack.array, interval=0.25)
    stack.monitor.start()
    lost = stack.cluster.nodes[LOST_COLUMN]
    await stack.cluster.stop_node(LOST_COLUMN)
    breaker = stack.array.breakers[LOST_COLUMN]
    deadline = now() + BREAKER_WAIT_S
    while breaker.allow():
        if now() > deadline:
            raise RuntimeError(f"column {LOST_COLUMN}: breaker never opened")
        await asyncio.sleep(0.05)
    return lost.disk


# -- load generation ----------------------------------------------------------


async def _execute(gateway: ObjectGateway, op: Op, oracle: Oracle) -> tuple[bool, int]:
    if op.kind == "get":
        data = await gateway.get(op.key)
        return oracle.check_get(op.key, data), len(data)
    if op.kind == "put":
        oracle.issue_put(op.key, op.data)
        await gateway.put(op.key, op.data)
        oracle.ack_put(op.key, op.data)
    else:
        await gateway.update(op.key, op.offset, op.data)
        oracle.ack_update(op.key, op.offset, op.data)
    return True, len(op.data)


async def _until(t: float) -> None:
    """Sleep until ``t``.  The event loop's timers round up to whole
    milliseconds, so the last stretch yields to the loop instead."""
    delay = t - now() - SPIN_S
    if delay > 0:
        await asyncio.sleep(delay)
    while now() < t:
        await asyncio.sleep(0)


class Generator:
    """Issues ops against one stack, optionally recording op spans."""

    def __init__(self, stack: Stack, wl: Workload, streams: list[OpStream],
                 oracle: Oracle) -> None:
        self.stack = stack
        self.wl = wl
        self.streams = streams
        self.oracle = oracle
        self.tally = Tally()
        self.recorder: Recorder | None = None
        self.op_spans: list = []

    async def op(self, op: Op, due: float) -> Sample:
        self.tally.attempted += 1
        start = now()
        ok = False
        try:
            if self.recorder is None:
                ok, _ = await _execute(self.stack.gateway, op, self.oracle)
            else:
                with self.recorder.root("gateway.objstore", op.kind, due) as span:
                    self.op_spans.append(span)
                    ok, span.nbytes = await _execute(self.stack.gateway, op, self.oracle)
        except Overloaded:
            self.tally.shed += 1
        except (GatewayError, ClusterError):
            self.tally.errors += 1
        return Sample(op.kind, due, start, now(), ok)

    async def window(self, seconds: float, speed: float = 1.0) -> Window:
        """Run for ``seconds``; an open loop offers ``speed`` times its
        rate (the host's speed over the reference speed)."""
        if self.wl.rate is None:
            return await self._closed(seconds)
        return await self._open(seconds, self.wl.rate * speed)

    async def _closed(self, seconds: float) -> Window:
        t0 = now()
        t1 = t0 + seconds
        samples: list[Sample] = []

        async def client(stream: OpStream) -> None:
            due = now()
            while due < t1:
                sample = await self.op(stream.next(), due)
                samples.append(sample)
                due = sample.end

        await asyncio.gather(*(client(s) for s in self.streams))
        return Window(t0, t1, samples)

    async def _open(self, seconds: float, rate: float) -> Window:
        n = max(1, round(rate * seconds))
        stream = self.streams[0]
        t0 = now()
        tasks = []
        for i in range(n):
            due = t0 + i / rate
            await _until(due)
            tasks.append(asyncio.create_task(self.op(stream.next(), due)))
        t1 = t0 + n / rate
        await _until(t1)
        backlog = sum(not t.done() for t in tasks)
        samples = list(await asyncio.gather(*tasks))
        return Window(t0, t1, samples, backlog)

    async def epochs(self, seconds: float, probe: HostProbe) -> list[Window]:
        """Measure for about ``seconds``: whole epochs of :data:`EPOCH_S`
        (at least one), with a host-speed probe between each two and at
        both ends; an epoch's samples carry the scale of its two probes.
        Each epoch drains before the probe, so the probe times an idle
        loop and no op waits for it.

        An open loop's rate holds in scaled time: an epoch offers the
        rate times the host speed its opening probe read.  At a fixed
        wall-clock rate, a slow spell would load the system more, and
        its queues grow faster than the host slows, which no scaling
        undoes."""
        length = min(EPOCH_S, seconds)
        t_end = now() + seconds
        out: list[Window] = []
        before = probe.seconds()
        while not out or now() < t_end - length / 2:
            window = await self.window(length, speed=hostspeed.scale(before, before))
            after = probe.seconds()
            window.scale = hostspeed.scale(before, after)
            for s in window.samples:
                s.scale = window.scale
            out.append(window)
            before = after
        return out


async def rebuild_pass(stack: Stack, lost_disk, oracle: Oracle, label: str,
                       recorder: Recorder | None = None, probe: HostProbe | None = None,
                       ) -> tuple[list[Sample], float, object]:
    """One column rebuild onto a fresh replacement, checked byte for byte.

    Returns its "rebuild" samples -- one per period between the batch
    decodes of consecutive 16-stripe windows, each covering one window's
    fetch, decode and push -- the pass's time, and its root span when
    ``recorder`` is given.  With ``probe``, the host is probed at every
    batch decode, when the rebuild has no RPC in flight: a period then
    runs from the end of one probe to the start of the next and is
    scaled by the two, and the pass's time leaves the probes out.
    """
    address = await stack.cluster.start_replacement(LOST_COLUMN)
    node = stack.cluster.replacements.pop(LOST_COLUMN)
    stack.spares.append(node)
    scheduler = RebuildScheduler(stack.array)
    marks: list[tuple[float, float, float]] = []  # probe start, its time, its end
    decode = scheduler.coder.decode

    def timed_decode(batch, erasures):
        t = now()
        took = 0.0 if probe is None else probe.seconds()
        marks.append((t, took, now()))
        return decode(batch, erasures)

    scheduler.coder.decode = timed_decode
    root = (contextlib.nullcontext() if recorder is None
            else recorder.root("cluster.rebuild", "rebuild_column"))
    start = now()
    with root as span:
        await scheduler.rebuild_column(LOST_COLUMN, address)
    pass_s = now() - start - sum(took for _, took, _ in marks)
    samples = [Sample("rebuild", a_end, a_end, b_start, True,
                      1.0 if probe is None else hostspeed.scale(a_took, b_took))
               for (_, a_took, a_end), (b_start, b_took, _) in zip(marks, marks[1:])]
    oracle.check_rebuilt(lost_disk, node.disk, label)
    return samples, pass_s, span


# -- one run ------------------------------------------------------------------


def _latency_summary(values: list[float]) -> dict:
    return {
        "count": len(values),
        "p50_ms": 1e3 * pct(values, 0.50),
        "p90_ms": 1e3 * pct(values, 0.90),
        "p99_ms": 1e3 * pct(values, 0.99),
    }


def _stored_per_user_byte(stack: Stack) -> float:
    """Raw bytes of every stripe holding live data, parity included,
    per live user byte: parity overhead plus packing waste."""
    gw = stack.gateway
    stats = gw.stats()
    alloc = gw.allocator
    used = sum(1 for s in range(alloc.n_stripes) if alloc.stripe_free(s) < alloc.stripe_bytes)
    code = stack.array.code
    raw = used * code.n_cols * code.strip_bytes
    return raw / max(stats["bytes_stored"], 1)


async def run(wl: Workload, seed: int, seconds: float, trace: bool) -> Result:
    payloads = Payloads(seed, wl.object_size)
    probe = HostProbe()
    setup_s, setup_scale = [], []
    for i in range(SETUPS):
        oracle = Oracle()
        before = probe.seconds()
        t0 = now()
        stack = await build(wl, payloads, oracle)
        setup_s.append(now() - t0)
        setup_scale.append(hostspeed.scale(before, probe.seconds()))
        if i < SETUPS - 1:
            await stack.close()

    n_streams = 1 if wl.rate is not None else wl.clients
    streams = [OpStream(wl, seed, c, payloads) for c in range(n_streams)]
    gen = Generator(stack, wl, streams, oracle)
    info: dict = {"setup_s_each": setup_s, "setup_scale_each": setup_scale}
    try:
        lost_disk = await degrade(stack) if wl.degraded else None
        await gen.window(min(WARMUP_MAX_S, WARMUP_SHARE * seconds))
        if trace:
            metrics, splits = await _traced(stack, wl, gen, seconds, lost_disk, oracle, info)
        else:
            metrics = await _untraced(stack, wl, gen, probe, seconds, lost_disk, oracle, info)
            metrics["setup_s"] = statistics.median(
                s * scale for s, scale in zip(setup_s, setup_scale))
            splits = []
        try:
            await oracle.check_readback(stack.gateway)
        except (GatewayError, ClusterError) as exc:
            oracle.mismatches += 1
            oracle.examples.append(f"readback failed: {exc!r}")
        oracle.check_decodes(stack.array, expected=wl.degraded)
    finally:
        await stack.close()

    tally = gen.tally
    failed = tally.errors + tally.shed + oracle.mismatches
    info.update(errors=tally.errors, shed=tally.shed, mismatches=oracle.mismatches,
                failed_frac=failed / max(tally.attempted, 1))
    return Result(
        correct=oracle.mismatches == 0,
        attempted=tally.attempted,
        failed=failed,
        metrics=metrics,
        info=info,
        examples=oracle.examples,
        splits=splits,
    )


async def _rebuilds(stack, seconds, lost_disk, oracle, probe) -> tuple[list[Sample], list]:
    """Rebuild passes until ``seconds`` have gone by: an untimed one
    that compiles the batch decode plans, then at least one timed."""
    t_end = now() + seconds
    await rebuild_pass(stack, lost_disk, oracle, "warm-up rebuild pass")
    samples: list[Sample] = []
    pass_s: list[float] = []
    while not pass_s or now() < t_end:
        more, took, _ = await rebuild_pass(stack, lost_disk, oracle,
                                           f"rebuild pass {len(pass_s) + 1}", probe=probe)
        samples += more
        pass_s.append(took)
    return samples, pass_s


async def _untraced(stack, wl, gen, probe, seconds, lost_disk, oracle, info) -> dict:
    rebuild_s = REBUILD_SHARE * seconds if wl.write_op == "rebuild" else 0.0
    epochs = await gen.epochs(seconds - rebuild_s, probe)
    every = [s for w in epochs for s in w.ok()]
    kept = every
    if wl.rate is not None:
        # An open loop queues behind a stall: the host can stop it for
        # tens of milliseconds between two probes that read normal.  A
        # stall only ever slows an epoch, so the worse half by mean
        # latency goes.
        best = sorted(epochs, key=Window.mean_latency)[: max(1, len(epochs) // 2)]
        kept = [s for w in best for s in w.ok()]
    if rebuild_s:
        rebuild, pass_s = await _rebuilds(stack, rebuild_s, lost_disk, oracle, probe)
        writes = latencies(rebuild, "rebuild")
        user = wl.geometry.n_stripes * wl.geometry.stripe_bytes
        info["rebuild_mb_per_s"] = statistics.median(user / s / 1e6 for s in pass_s)
        info["rebuild_pass_s"] = pass_s
    else:
        writes = latencies(kept, wl.write_op)
    gets = latencies(kept, "get")
    info["latency"] = {kind: _latency_summary(latencies(every, kind))
                       for kind in ("get", "put", "update")}
    info["epoch_scale"] = [w.scale for w in epochs]
    info["backlog_end"] = max(w.backlog_end for w in epochs)
    info["late_ms_p99"] = 1e3 * pct([s.start - s.due for w in epochs for s in w.samples], 0.99)
    # In scaled seconds, like the latencies.  An open loop completes what
    # its schedule offers: its rate while it keeps up, less once a
    # backlog has to drain.
    ops_per_s = len(every) / sum(w.busy_s() * w.scale for w in epochs)
    return {
        "ops_per_s": ops_per_s,
        "get_p50_ms": 1e3 * pct(gets, 0.50),
        "get_tail_ms": 1e3 * pct(gets, TAIL),
        "write_p50_ms": 1e3 * pct(writes, 0.50),
        "write_tail_ms": 1e3 * pct(writes, TAIL),
    }


async def _traced(stack, wl, gen, seconds, lost_disk, oracle, info):
    """Untraced then traced half windows; per-layer metrics of the latter."""
    base = await gen.window(seconds / 2)
    gw_metrics, array_metrics = stack.gateway.metrics, stack.array.metrics
    names = ("cache_hits", "cache_misses", "cache_evictions",
             "gateway_shed_queue_full", "gateway_shed_timeout")
    before = {n: gw_metrics.get(n) for n in names}
    retries = array_metrics.get("retries")

    recorder = Recorder()
    gen.recorder = recorder
    with installed(recorder, stack.array.code):
        traced = await gen.window(seconds / 2)
        gen.recorder = None
        delta = {n: gw_metrics.get(n) - before[n] for n in names}
        retries = array_metrics.get("retries") - retries
        rebuilds = []
        if wl.degraded:
            await rebuild_pass(stack, lost_disk, oracle, "warm-up rebuild pass")
            _, _, span = await rebuild_pass(stack, lost_disk, oracle, "traced rebuild pass",
                                            recorder)
            rebuilds = [span]

    metrics, splits = fold(recorder, gen.op_spans, rebuilds, wl.geometry)
    # The typical op's split goes to the record, not the metrics: on the
    # healthy workloads it is a get, whose `codes` share is exactly 0.
    info["layer_ms_p50"] = {layer: metrics.pop(f"layer_ms.{layer}.p50") for layer in LAYERS}
    n_ops = max(len(traced.samples), 1)
    lookups = delta["cache_hits"] + delta["cache_misses"]
    metrics.update({
        "gateway.admission.shed": float(delta["gateway_shed_queue_full"]
                                        + delta["gateway_shed_timeout"]),
        "gateway.cache.hit_ratio": delta["cache_hits"] / lookups if lookups else 0.0,
        "gateway.cache.evictions_per_op": delta["cache_evictions"] / n_ops,
        "gateway.layout.stored_bytes_per_user_byte": _stored_per_user_byte(stack),
        "cluster.client.retries_per_op": retries / n_ops,
        "bench.generator.backlog_end": float(traced.backlog_end),
        "trace.overhead": traced.mean_latency() / base.mean_latency() - 1.0,
    })
    info["traced_ops"] = len(gen.op_spans)
    info["traced_p50_ms"] = 1e3 * pct([s.end - s.due for s in traced.samples if s.ok], 0.50)
    return metrics, splits
