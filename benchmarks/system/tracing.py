"""Outside-in per-layer tracing for the system benchmark.

:func:`installed` wraps the public entry points of each layer for the
length of a ``with`` block -- no file under ``src/`` knows it is being
traced -- and records one :class:`Span` per call into a
:class:`Recorder`: layer, name, start, end, parent.  The parent comes
from a :class:`contextvars.ContextVar`, which asyncio copies into every
task, so fan-out children find their op.  Node-side spans run in the
server's connection task, which shares no context with the client; they
are linked to the client's RPC through the connection itself (the
client's local address is the node's peer address).

:func:`fold` turns the spans into per-layer metrics.  A span's self
time is its duration minus what its children cover; where children
overlap (parallel RPCs) the op's time is charged along the critical
path, following the child that ends last.  So for every op the layer
times add up exactly to the op's time, measured from when it was due.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import time
from collections import defaultdict

import numpy as np

import repro.cluster.client as client_mod
import repro.cluster.node as node_mod
import repro.cluster.protocol as protocol_mod
from repro.array.disk import SimulatedDisk
from repro.cluster.client import ClusterArray, NodeClient
from repro.cluster.node import StripNode
from repro.gateway.admission import AdmissionController
from repro.gateway.cache import StripeCache
from repro.parallel import BatchCoder
from repro.sim.transport import AsyncioTransport

now = time.perf_counter

#: The layers an op's time is split into, outermost first.  The
#: generator layer is the wait between an op's due time and its start.
LAYERS = (
    "bench.generator",
    "gateway.admission",
    "gateway.cache",
    "gateway.objstore",
    "cluster.client",
    "cluster.protocol",
    "cluster.node",
    "array.disk",
    "codes",
)

_CURRENT: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
    "system_bench_span", default=None
)
_CONN: contextvars.ContextVar[Conn | None] = contextvars.ContextVar(
    "system_bench_conn", default=None
)
#: the node-side read of the request a node connection task serves next
_REQUEST: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
    "system_bench_request", default=None
)


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "conn", "nbytes", "due", "kids")

    def __init__(self, layer: str, name: str, parent: Span | None) -> None:
        self.layer = layer
        self.name = name
        self.parent = parent
        self.start = now()
        self.end: float | None = None  # stays None if the call raised
        self.conn: Conn | None = None
        self.nbytes = 0
        self.due = self.start
        self.kids: list[Span] = []

    @property
    def duration(self) -> float:
        return self.end - self.start


class Conn:
    """One client connection: the RPC that opened it and its reply read."""

    __slots__ = ("rpc", "read")

    def __init__(self, rpc: Span | None) -> None:
        self.rpc = rpc
        self.read: Span | None = None


class Recorder:
    """Spans of one traced window, kept in memory until :func:`fold`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.conns: dict[tuple, Conn] = {}

    def open(self, layer: str, name: str, *, root: bool = False) -> Span:
        span = Span(layer, name, None if root else _CURRENT.get())
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def root(self, layer: str, name: str, due: float | None = None):
        """A root span (an op or a rebuild pass) around a ``with`` body."""
        span = self.open(layer, name, root=True)
        if due is not None:
            span.due = due
        token = _CURRENT.set(span)
        try:
            yield span
            span.end = now()
        finally:
            _CURRENT.reset(token)


# -- wrappers -----------------------------------------------------------------


def _sync(rec: Recorder, layer: str, name: str, fn, nbytes=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(layer, name)
        token = _CURRENT.set(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            _CURRENT.reset(token)
        span.end = now()
        if nbytes is not None:
            span.nbytes = nbytes(args, result)
        return result

    return wrapper


def _async(rec: Recorder, layer: str, name: str, fn):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        span = rec.open(layer, name)
        token = _CURRENT.set(span)
        try:
            result = await fn(*args, **kwargs)
        finally:
            _CURRENT.reset(token)
        span.end = now()
        return result

    return wrapper


def _wrap_connect(rec: Recorder, fn):
    # Runs in the RPC attempt's own task, so setting _CONN here is seen
    # by the attempt's read_frame call that follows.
    @functools.wraps(fn)
    async def connect(self, address):
        span = rec.open("cluster.client", "connect")
        token = _CURRENT.set(span)
        try:
            reader, writer = await fn(self, address)
        finally:
            _CURRENT.reset(token)
        span.end = now()
        conn = Conn(span.parent)
        rec.conns[writer.get_extra_info("sockname")] = conn
        _CONN.set(conn)
        return reader, writer

    return connect


def _wrap_read_frame(rec: Recorder, fn, *, node: bool):
    @functools.wraps(fn)
    async def read_frame(reader):
        span = rec.open("cluster.protocol", "read_frame")
        if not node:
            conn = _CONN.get()
            if conn is not None:
                conn.read = span
        token = _CURRENT.set(span)
        try:
            header, payload = await fn(reader)
        finally:
            _CURRENT.reset(token)
        span.end = now()
        span.nbytes = len(payload)
        if node:
            _REQUEST.set(span)
        return header, payload

    return read_frame


def _wrap_dispatch(rec: Recorder, fn):
    @functools.wraps(fn)
    async def _dispatch(self, header, payload, writer):
        span = rec.open("cluster.node", "dispatch", root=True)
        span.conn = rec.conns.get(writer.get_extra_info("peername"))
        request = _REQUEST.get()
        if request is not None:
            # The request read ends where dispatch starts, so it joins
            # the op's tree for its own metric but never its critical path.
            request.parent = span
            _REQUEST.set(None)
        token = _CURRENT.set(span)
        try:
            return await fn(self, header, payload, writer)
        finally:
            _CURRENT.reset(token)
            span.end = now()

    return _dispatch


def _frame_bytes(args, parts) -> int:
    return sum(len(p) for p in parts)


def _strip_bytes(args, result) -> int:
    return args[0].strip_words * 8


@contextlib.contextmanager
def installed(rec: Recorder, code):
    """Wrap every layer's entry points for the ``with`` body.

    ``code`` is the array's code instance; its ``encode``/``decode``
    are wrapped on the instance, everything else on the class or module
    that callers look it up on.
    """
    undo: list = []

    def patch(owner, attr, make):
        had = attr in vars(owner)
        orig = getattr(owner, attr)
        setattr(owner, attr, make(orig))
        undo.append((owner, attr, orig if had else None))

    def data_bytes(args, result):
        return code.data_bytes

    def batch_bytes(args, result):
        return args[1].shape[0] * code.data_bytes

    patch(AdmissionController, "acquire",
          lambda f: _async(rec, "gateway.admission", "acquire", f))
    for name in ("get", "put", "invalidate"):
        patch(StripeCache, name, lambda f, n=name: _sync(rec, "gateway.cache", n, f))
    for name in ("read", "write", "read_stripe", "write_stripe"):
        patch(ClusterArray, name, lambda f, n=name: _async(rec, "cluster.client", n, f))
    patch(NodeClient, "request", lambda f: _async(rec, "cluster.client", "rpc", f))
    patch(AsyncioTransport, "connect", lambda f: _wrap_connect(rec, f))
    for mod in (protocol_mod, node_mod):
        patch(mod, "frame_parts",
              lambda f: _sync(rec, "cluster.protocol", "frame_parts", f, _frame_bytes))
    patch(client_mod, "read_frame", lambda f: _wrap_read_frame(rec, f, node=False))
    patch(node_mod, "read_frame", lambda f: _wrap_read_frame(rec, f, node=True))
    patch(StripNode, "_dispatch", lambda f: _wrap_dispatch(rec, f))
    for name in ("read_strip", "write_strip"):
        patch(SimulatedDisk, name,
              lambda f, n=name: _sync(rec, "array.disk", n, f, _strip_bytes))
    for name in ("encode", "decode"):
        patch(code, name, lambda f, n=name: _sync(rec, "codes", n, f, data_bytes))
    patch(BatchCoder, "decode", lambda f: _sync(rec, "codes", "decode", f, batch_bytes))
    try:
        yield rec
    finally:
        for owner, attr, orig in reversed(undo):
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)


# -- folding ------------------------------------------------------------------


def _link(rec: Recorder) -> None:
    """Attach every finished span to its parent's ``kids``."""
    for span in rec.spans:
        if span.end is None:
            continue
        parent = span.parent
        if span.conn is not None:  # node dispatch: under the client's reply read
            parent = span.conn.read or span.conn.rpc
        if parent is not None:
            parent.kids.append(span)


def _charge(span: Span, lo: float, hi: float, acc: dict[str, float]) -> None:
    """Split ``[lo, hi]`` of ``span`` into layer self times (critical path)."""
    kids = [k for k in span.kids if k.start < hi and k.end > lo]
    t = hi
    while t > lo:
        best, best_end = None, lo
        for k in kids:
            if k.start < t:
                end = min(k.end, t)
                if end > best_end:
                    best, best_end = k, end
        if best is None:
            break
        acc[span.layer] += t - best_end
        start = max(best.start, lo)
        _charge(best, start, best_end, acc)
        t = start
    acc[span.layer] += t - lo


def _walk(span: Span):
    stack = [span]
    while stack:
        s = stack.pop()
        yield s
        stack.extend(s.kids)


def pct(values, q: float) -> float:
    """The ``q`` quantile of ``values`` (0 when there are none)."""
    return float(np.percentile(values, q * 100)) if len(values) else 0.0


def _outermost(spans, layer: str):
    """Spans of ``layer`` not nested in another span of the same layer."""
    return [s for s in spans if s.parent is None or s.parent.layer != layer]


def op_layers(root: Span) -> dict[str, float]:
    """One op's time, from its due time, split by layer (seconds)."""
    acc = dict.fromkeys(LAYERS, 0.0)
    acc["bench.generator"] = root.start - root.due
    _charge(root, root.start, root.end, acc)
    return acc


def fold(rec: Recorder, ops: list[Span], rebuilds: list[Span], geometry
         ) -> tuple[dict[str, float], list[tuple[float, dict[str, float]]]]:
    """Per-layer metrics of one traced window, plus each op's time and split.

    ``ops`` are the op root spans (``nbytes`` = user bytes moved),
    ``rebuilds`` the rebuild-pass roots.
    """
    _link(rec)
    ops = [op for op in ops if op.end is not None]
    rebuilds = [rb for rb in rebuilds if rb.end is not None]
    splits = [op_layers(op) for op in ops]
    totals = np.array([op.end - op.due for op in ops])
    n_ops = max(len(ops), 1)
    user_bytes = max(sum(op.nbytes for op in ops), 1)
    out: dict[str, float] = {}

    # layer_ms.<layer>.mean / .p50 / .p99: where the time went -- the
    # mean split of every op (in a closed loop, ops/s is clients over
    # the mean op time), of the ops whose time lies in the 45-55th
    # percentile band, and of those at or beyond the 99th.  The band's
    # edges are op times, so it is never empty, even with ten ops.
    lo = np.percentile(totals, 45, method="lower") if len(totals) else 0.0
    hi = np.percentile(totals, 55, method="higher") if len(totals) else 0.0
    bands = {
        "mean": np.ones(len(totals), dtype=bool),
        "p50": (totals >= lo) & (totals <= hi),
        "p99": totals >= pct(totals, 0.99),
    }
    for tag, mask in bands.items():
        chosen = [s for s, keep in zip(splits, mask) if keep]
        for layer in LAYERS:
            vals = [s[layer] for s in chosen]
            out[f"layer_ms.{layer}.{tag}"] = 1e3 * float(np.mean(vals)) if vals else 0.0

    in_ops = [s for op in ops for s in _walk(op)]
    in_rebuilds = [s for rb in rebuilds for s in _walk(rb)]
    by_name: dict[tuple[str, str], list[Span]] = defaultdict(list)
    for s in in_ops:
        by_name[(s.layer, s.name)].append(s)

    def durations(layer: str, name: str) -> list[float]:
        return [s.duration for s in by_name[(layer, name)]]

    def total_bytes(layer: str, name: str) -> int:
        return sum(s.nbytes for s in by_name[(layer, name)])

    out["gateway.admission.wait_ms_p99"] = 1e3 * pct(
        durations("gateway.admission", "acquire"), 0.99)

    rpc_ms = durations("cluster.client", "rpc")
    out["cluster.client.rpcs_per_op"] = len(rpc_ms) / n_ops
    out["cluster.client.connects_per_op"] = len(by_name[("cluster.client", "connect")]) / n_ops
    out["cluster.client.rpc_ms_p50"] = 1e3 * pct(rpc_ms, 0.50)
    out["cluster.client.rpc_ms_p99"] = 1e3 * pct(rpc_ms, 0.99)
    skews = []
    for name in ("read_stripe", "write_stripe"):
        for s in by_name[("cluster.client", name)]:
            kids = [k.duration for k in s.kids if k.name == "rpc"]
            if len(kids) >= 2:
                skews.append(max(kids) / float(np.median(kids)))
    out["cluster.client.fanout_skew"] = pct(skews, 0.50)

    out["cluster.protocol.frame_encode_us"] = 1e6 * pct(
        durations("cluster.protocol", "frame_parts"), 0.50)
    out["cluster.protocol.read_frame_ms_p50"] = 1e3 * pct(
        durations("cluster.protocol", "read_frame"), 0.50)
    out["cluster.protocol.wire_bytes_per_user_byte"] = (
        total_bytes("cluster.protocol", "frame_parts") / user_bytes)

    out["cluster.node.dispatch_us_p50"] = 1e6 * pct(durations("cluster.node", "dispatch"), 0.50)

    disk_s = sum(durations("array.disk", "read_strip") + durations("array.disk", "write_strip"))
    out["array.disk.busy_us_per_op"] = 1e6 * disk_s / n_ops
    out["array.disk.read_bytes_per_user_byte"] = (
        total_bytes("array.disk", "read_strip") / user_bytes)
    out["array.disk.write_bytes_per_user_byte"] = (
        total_bytes("array.disk", "write_strip") / user_bytes)

    kernel = _outermost([s for s in in_ops + in_rebuilds if s.layer == "codes"], "codes")
    for name in ("encode", "decode"):
        spans = [s for s in kernel if s.name == name]
        busy = sum(s.duration for s in spans)
        out[f"codes.{name}_gbps"] = sum(s.nbytes for s in spans) / busy / 1e9 if busy else 0.0
    out["codes.decodes"] = float(sum(s.nbytes for s in kernel if s.name == "decode")
                                 // geometry.stripe_bytes)
    out["codes.busy_share"] = (
        sum(s["codes"] for s in splits) / float(totals.sum()) if len(splits) else 0.0)

    rebuilt = len(rebuilds) * geometry.n_stripes * geometry.strip_bytes
    rebuild_s = sum(rb.duration for rb in rebuilds)
    # client-side reply reads only: node-side reads carry the puts' payloads
    fetched = sum(s.nbytes for s in in_rebuilds
                  if s.name == "read_frame" and s.parent.layer != "cluster.node")
    decode_s = sum(s.duration for s in _outermost(
        [s for s in in_rebuilds if s.layer == "codes"], "codes"))
    out["cluster.rebuild.ingress_bytes_per_rebuilt_byte"] = fetched / rebuilt if rebuilt else 0.0
    out["cluster.rebuild.decode_share"] = decode_s / rebuild_s if rebuild_s else 0.0

    out["bench.generator.late_ms_p99"] = 1e3 * pct([op.start - op.due for op in ops], 0.99)
    return out, list(zip(totals.tolist(), splits))
