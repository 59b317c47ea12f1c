"""Seeded cluster scenarios: generate, run, digest, replay.

A :class:`SimScenario` is a complete fault campaign derived from one
integer seed: a geometry (code, ``k``, ``p``, element size, stripe
count) plus an explicit op list -- writes, reads, node kills, network
fault plans, disk failures, latent sectors, rebuilds.  Because the ops
are explicit data (not re-drawn at run time), a scenario replays
bit-identically and the shrinker can delete ops one by one.

:func:`run_scenario` executes the campaign on a
:class:`~repro.cluster.local.LocalCluster` wired to a
:class:`~repro.sim.clock.VirtualClock` and
:class:`~repro.sim.transport.MemoryTransport` -- zero real sockets,
zero real sleeps -- while mirroring every operation into two oracles:

* a **shadow byte array**, the ground truth for user data (RAID-6 must
  return exactly what was written while at most two columns are lost);
* a single-process :class:`~repro.array.raid6.RAID6Array` running the
  same code, whose healthy read path cross-checks the cluster's
  (possibly degraded, decode-driven) answers byte for byte.

Every read is compared against both on the spot; the first divergent
byte raises :class:`DivergenceError`.  The run's trace (op records,
read digests, final metrics counters, final virtual time) is hashed
into a single digest, so "same seed, same bytes" is checkable across
runs, machines and refactors.

The generator keeps at most two columns impaired at any time -- the
RAID-6 contract -- counting a column impaired from the moment any
fault lands on it until a rebuild replaces it (conservative: a write
may heal a latent sector early, but conservatism only constrains the
generator, never correctness).
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import random
from dataclasses import dataclass, field

import numpy as np

from repro.array.faults import NetworkFaultPlan
from repro.array.raid6 import RAID6Array
from repro.cluster.client import RetryPolicy
from repro.cluster.local import LocalCluster
from repro.cluster.rebalance import ClientCrash, ClientCrashPoint
from repro.cluster.rebuild import RebuildScheduler
from repro.cluster.scrub import ClusterScrubber
from repro.codes import make_code
from repro.gateway.objstore import IntegrityError, ObjectGateway, ObjectNotFoundError
from repro.obs.tracing import Tracer, use_tracer
from repro.sim.clock import VirtualClock
from repro.sim.transport import MemoryTransport

__all__ = [
    "DivergenceError",
    "SimScenario",
    "ScenarioResult",
    "generate_scenario",
    "run_scenario",
    "SIM_POLICY",
    "GATEWAY_OPS",
    "ELASTIC_OPS",
]


class DivergenceError(AssertionError):
    """Two oracles disagreed -- the divergence the fuzzer hunts for.

    ``context`` carries enough structure (op index, oracle pair, first
    differing offset) for the shrinker's "still the same failure?"
    predicate and for human triage of a repro file.
    """

    def __init__(self, message: str, *, context: dict | None = None) -> None:
        super().__init__(message)
        self.context = dict(context or {})


#: Retry policy every simulated scenario runs under: tight timeouts are
#: free on a virtual clock, and seeded jitter exercises the backoff path.
SIM_POLICY = RetryPolicy(
    attempts=3, timeout=0.25, backoff=0.02, max_backoff=0.2, jitter=0.5
)

#: Virtual seconds a ``check_parity`` op waits first: longer than any
#: slow spell (at most 2.5 attempt timeouts), so every delayed request
#: has landed or been dropped by then.
SETTLE_S = 1.0

#: Geometry menu the generator draws from (small: shrink targets).
GEOMETRY_PRIMES = (5, 7, 11, 13)
GEOMETRY_ELEMENTS = (8, 16, 32)

#: Op kinds of the self-healing vocabulary.  Their presence in a
#: scenario switches the runner into chaos mode (scrubber and health
#: monitor attached); plain scenarios never construct them, so
#: pre-chaos seeds keep their historical digests.
CHAOS_OPS = frozenset({"corrupt", "scrub", "heal", "check_parity", "check_quiescent"})

#: Op kinds of the object-traffic vocabulary.  Like :data:`CHAOS_OPS`,
#: their presence switches the runner's data plane: an
#: :class:`~repro.gateway.objstore.ObjectGateway` is attached and every
#: object is mirrored (extent by extent) into the byte oracles, so the
#: raw read checks keep working.  Plain scenarios never construct them,
#: so existing seeds keep their digests.
GATEWAY_OPS = frozenset(
    {"gateway_put", "gateway_get", "gateway_update", "gateway_delete",
     "check_objects"}
)

#: Op kinds of the membership-churn vocabulary.  Their campaigns run on
#: a :class:`~repro.cluster.local.LocalCluster` pool of ``n_nodes``
#: (rendezvous placement, heartbeat monitor, rebalancer) instead of the
#: ``k + 2`` column-ordered cluster; nodes are identities, not columns.
ELASTIC_OPS = frozenset(
    {"join", "leave", "drain", "epoch_bump", "rebalance", "check_placement"}
)


@dataclass
class SimScenario:
    """One seeded, replayable cluster campaign."""

    seed: int
    code: str = "liberation-optimal"
    k: int = 3
    p: int = 5
    element_size: int = 8
    n_stripes: int = 2
    #: elastic campaigns only: size of the initial node pool (0 = fixed
    #: ``k + 2`` cluster, the historical form)
    n_nodes: int = 0
    ops: list = field(default_factory=list)

    # -- (de)serialisation --------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "kind": "scenario",
            "seed": self.seed,
            "code": self.code,
            "k": self.k,
            "p": self.p,
            "element_size": self.element_size,
            "n_stripes": self.n_stripes,
            "n_nodes": self.n_nodes,
            "ops": self.ops,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimScenario":
        if d.get("kind", "scenario") != "scenario":
            raise ValueError(f"not a scenario record: kind={d.get('kind')!r}")
        return cls(
            seed=int(d["seed"]),
            code=d.get("code", "liberation-optimal"),
            k=int(d["k"]),
            p=int(d["p"]),
            element_size=int(d["element_size"]),
            n_stripes=int(d["n_stripes"]),
            n_nodes=int(d.get("n_nodes", 0)),
            ops=list(d["ops"]),
        )

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "SimScenario":
        with open(path) as f:
            return cls.from_dict(json.load(f))


@dataclass
class ScenarioResult:
    """Outcome of one scenario run."""

    digest: str  # SHA-256 over the whole trace
    trace: list  # one record per op (+ the closing read-back)
    virtual_end: float  # virtual seconds consumed
    counters: dict  # final client-side metrics counters

    def __eq__(self, other) -> bool:  # two runs compare by full trace
        return isinstance(other, ScenarioResult) and self.digest == other.digest


# -- generation ---------------------------------------------------------------


def generate_scenario(
    seed: int, *, chaos: bool = False, objects: bool = False,
    elastic: bool = False,
) -> SimScenario:
    """Derive a whole campaign from one integer seed.

    ``chaos`` widens the op vocabulary with the self-healing verbs --
    silent corruption, scrub passes and heal rounds -- and appends a
    convergence epilogue (heal, rebuild, deep scrub,
    ``check_quiescent``) so every chaos campaign must end all-clean.
    The default vocabulary is byte-identical to the pre-chaos
    generator: existing seeds keep their digests.

    ``objects`` swaps the data plane for object traffic: raw
    writes/reads become ``gateway_put`` / ``gateway_get`` /
    ``gateway_update`` / ``gateway_delete`` through the object
    front-end (raw stripe writes would clobber object extents), while
    the fault vocabulary -- and, with ``chaos``, scrub/corrupt/heal and
    the convergence epilogue -- stays, so node failure and scrub/heal
    interleave with object traffic.  The generator tracks live objects
    and free space exactly (the allocator fails only when bytes run
    out), so every generated op is legal by construction; a
    ``check_objects`` op before the closing ``read_all`` proves every
    surviving object readable and byte-correct.

    ``elastic`` switches the campaign to membership churn over an
    elastic node pool: joins, ungraceful leaves (stop + heartbeat
    verdict), graceful drains and spurious epoch bumps interleave with
    byte traffic.  The churn model is conservative by construction --
    an ungraceful leave is immediately followed by a rebalance (so at
    most one node's strips are ever un-redundant), drains and leaves
    are only drawn while the surviving LIVE pool can still host every
    column, and the pool is capped at ``k + 2 + 4`` nodes.  Standalone
    and join-paired rebalances arm a coordinator crash ``crash_after``
    RPCs in, so a migration may die between any two of its RPCs; the
    runner then reads everything back.  The epilogue
    (rebalance, ``check_placement``, ``read_all``) makes every elastic
    campaign prove convergence: zero misplaced stripes, every holder
    LIVE, every strip CRC-clean on its node -- full redundancy.
    """
    rng = random.Random(seed)
    p = rng.choice(GEOMETRY_PRIMES)
    k = rng.randint(2, min(5, p))
    element_size = rng.choice(GEOMETRY_ELEMENTS)
    n_stripes = rng.randint(2, 4)
    sc = SimScenario(
        seed=seed, k=k, p=p, element_size=element_size, n_stripes=n_stripes
    )
    capacity = k * p * element_size * n_stripes

    if elastic:
        n_cols = k + 2
        sc.n_nodes = n_cols + rng.randint(1, 3)
        next_id = sc.n_nodes
        live = set(range(sc.n_nodes))

        def espan() -> tuple[int, int]:
            if rng.random() < 0.3:
                return 0, capacity
            offset = rng.randrange(capacity)
            length = min(capacity - offset, rng.randint(1, max(1, capacity // 2)))
            return offset, length

        def rebalance() -> dict:
            return {"op": "rebalance", "crash_after": rng.randint(0, 12)}

        ops = [{"op": "write", "offset": 0, "length": capacity,
                "seed": rng.getrandbits(31)}]
        for _ in range(rng.randint(4, 10)):
            choices = ["write", "read", "read_all", "epoch_bump", "rebalance"]
            if len(live) < n_cols + 4:
                choices.append("join")
            if len(live) - 1 >= n_cols:
                choices += ["leave", "drain"]
            kind = rng.choice(choices)
            if kind == "write":
                offset, length = espan()
                ops.append({"op": "write", "offset": offset, "length": length,
                            "seed": rng.getrandbits(31)})
            elif kind == "read":
                offset, length = espan()
                ops.append({"op": "read", "offset": offset, "length": length})
            elif kind == "read_all":
                ops.append({"op": "read_all"})
            elif kind == "epoch_bump":
                ops.append({"op": "epoch_bump"})
            elif kind == "rebalance":
                ops.append(rebalance())
            elif kind == "join":
                live.add(next_id)
                next_id += 1
                ops.append({"op": "join"})
                if rng.random() < 0.5:
                    ops.append(rebalance())
            elif kind == "leave":
                node = rng.choice(sorted(live))
                live.discard(node)
                # Redundancy is restored before the next fault lands:
                # the paired rebalance, never crashed, re-places the
                # dead node's strips.
                ops.append({"op": "leave", "node": node})
                ops.append({"op": "rebalance"})
            elif kind == "drain":
                node = rng.choice(sorted(live))
                live.discard(node)
                ops.append({"op": "drain", "node": node})
        ops += [{"op": "rebalance"}, {"op": "check_placement"},
                {"op": "read_all"}]
        sc.ops = ops
        return sc

    impaired: set[int] = set()
    #: why each impaired column is impaired: reachability losses
    #: ("stop", "net") are what a heal round fixes; media losses
    #: ("disk", "latent") need an explicit rebuild; rot at rest ("rot")
    #: lasts until a scrub (or a rebuild of its column) rewrites it.
    impair_kind: dict[int, str] = {}
    n_cols = k + 2

    #: generator-side object directory: name -> size for live objects,
    #: ``used`` the exact allocated byte total (puts are shadow-writes,
    #: so an overwrite transiently needs old + new to fit).
    live: dict[str, int] = {}
    dead: list[str] = []
    used = 0
    next_id = 0

    def gw_put(min_size: int = 0) -> dict | None:
        nonlocal used, next_id
        overwrite = bool(live) and rng.random() < 0.35
        if overwrite:
            name = rng.choice(sorted(live))
        else:
            name = f"obj{next_id}"
            next_id += 1
        budget = capacity - used
        if budget <= 0:
            return None
        size = rng.randint(
            min(min_size, budget), min(budget, max(min_size, 1, capacity // 2))
        )
        if overwrite:
            used -= live[name]
        used += size
        live[name] = size
        if name in dead:
            dead.remove(name)
        return {"op": "gateway_put", "name": name, "size": size,
                "seed": rng.getrandbits(31)}

    # Both vocabularies prime the full array first.  This is not just
    # initial data: the write freshens every strip's checksum sidecar,
    # which rot at rest relies on -- corruption of a never-written
    # strip is *adopted* by the first probe or get (sidecar semantics),
    # reads back as data, and can then spread through a rebuild into a
    # consistent-but-wrong stripe.
    ops: list = [{"op": "write", "offset": 0, "length": capacity,
                  "seed": rng.getrandbits(31)}]
    if objects:
        for _ in range(rng.randint(2, 3)):
            rec = gw_put()
            if rec is not None:
                ops.append(rec)

    def io_span() -> tuple[int, int]:
        if rng.random() < 0.3:  # full-array (exercises full-stripe path)
            return 0, capacity
        offset = rng.randrange(capacity)
        length = min(capacity - offset, rng.randint(1, max(1, capacity // 2)))
        return offset, length

    def gw_update() -> dict | None:
        cands = sorted(n for n, s in live.items() if s >= 1)
        if not cands:
            return None
        name = rng.choice(cands)
        size = live[name]
        offset = rng.randrange(size)
        length = rng.randint(1, size - offset)
        return {"op": "gateway_update", "name": name, "offset": offset,
                "length": length, "seed": rng.getrandbits(31)}

    if chaos:
        # Slow spells on a parity node before a whole-stripe write and a
        # delta write: the write's put or xor to that node outlives the
        # attempt's timeout and wakes after the retry has landed -- a
        # late duplicate the node must drop, not apply.  A raw campaign
        # writes the array again while the late put sleeps, so a late
        # put that lands breaks parity, and check_parity sees it.
        if objects:  # an object of a stripe or more takes whole stripes
            writes = [(True, gw_put(min_size=k * p * element_size)), (True, gw_update())]
        else:
            length = rng.randint(1, 64)
            spans = [(True, 0, capacity), (False, 0, capacity),
                     (True, rng.randrange(capacity - length + 1), length)]
            writes = [(slow, {"op": "write", "offset": offset, "length": length,
                              "seed": rng.getrandbits(31)})
                      for slow, offset, length in spans]
        for slow, rec in writes:
            if slow and rec is not None:
                plan = NetworkFaultPlan.slow_spell(rng, SIM_POLICY.timeout)
                ops.append({"op": "fault", "column": rng.choice([k, k + 1]),
                            "plan": plan.to_header()})
            if rec is not None:
                ops.append(rec)
        ops.append({"op": "check_parity"})

    for _ in range(rng.randint(3, 10)):
        healthy = [c for c in range(n_cols) if c not in impaired]
        if objects:
            choices = ["gateway_put", "gateway_get", "gateway_update",
                       "gateway_delete", "transient_fault"]
        else:
            choices = ["write", "read", "read_all", "transient_fault"]
        if len(impaired) < 2:
            choices += ["stop_node", "net_fault", "disk_fail", "latent"]
        if impaired:
            choices.append("rebuild")
        if chaos:
            choices.append("scrub")
            if len(impaired) < 2:
                choices.append("corrupt")
        kind = rng.choice(choices)

        if kind == "gateway_put":
            rec = gw_put()
            if rec is None:  # full: fall back to a read of a live object
                rec = {"op": "gateway_get", "name": rng.choice(sorted(live))}
            ops.append(rec)
        elif kind == "gateway_get":
            if dead and rng.random() < 0.25:
                # delete-then-get: must answer ObjectNotFoundError
                ops.append({"op": "gateway_get", "name": rng.choice(sorted(dead))})
            elif live:
                ops.append({"op": "gateway_get", "name": rng.choice(sorted(live))})
            else:
                ops.append({"op": "gateway_get", "name": "ghost"})
        elif kind == "gateway_update":
            rec = gw_update()
            if rec is not None:
                ops.append(rec)
            elif live:
                ops.append({"op": "gateway_get", "name": rng.choice(sorted(live))})
        elif kind == "gateway_delete":
            if live:
                name = rng.choice(sorted(live))
                used -= live.pop(name)
                if name not in dead:
                    dead.append(name)
                ops.append({"op": "gateway_delete", "name": name})
        elif kind == "write":
            offset, length = io_span()
            ops.append({"op": "write", "offset": offset, "length": length,
                        "seed": rng.getrandbits(31)})
        elif kind == "read":
            offset, length = io_span()
            ops.append({"op": "read", "offset": offset, "length": length})
        elif kind == "read_all":
            ops.append({"op": "read_all"})
        elif kind == "transient_fault":
            col = rng.choice(healthy)
            plan = NetworkFaultPlan.random(
                rng, persistent=False, timeout=SIM_POLICY.timeout
            )
            ops.append({"op": "fault", "column": col, "plan": plan.to_header()})
        elif kind == "stop_node":
            col = rng.choice(healthy)
            impaired.add(col)
            impair_kind[col] = "stop"
            ops.append({"op": "stop_node", "column": col})
        elif kind == "net_fault":
            col = rng.choice(healthy)
            impaired.add(col)
            impair_kind[col] = "net"
            plan = NetworkFaultPlan.random(
                rng, persistent=True, timeout=SIM_POLICY.timeout
            )
            ops.append({"op": "fault", "column": col, "plan": plan.to_header()})
        elif kind == "disk_fail":
            col = rng.choice(healthy)
            impaired.add(col)
            impair_kind[col] = "disk"
            ops.append({"op": "disk_fail", "column": col})
        elif kind == "latent":
            col = rng.choice(healthy)
            impaired.add(col)
            impair_kind[col] = "latent"
            ops.append({"op": "latent", "column": col,
                        "stripe": rng.randrange(n_stripes)})
        elif kind == "rebuild":
            col = rng.choice(sorted(impaired))
            impaired.discard(col)
            impair_kind.pop(col, None)
            ops.append({"op": "rebuild", "column": col})
        elif kind == "corrupt":
            # Rot stays at rest: reads, writes and rebuilds meet it as
            # an erasure, so its column counts against the two-column
            # budget until a scrub rewrites it.
            col = rng.choice(healthy)
            impaired.add(col)
            impair_kind[col] = "rot"
            ops.append({"op": "corrupt", "column": col,
                        "stripe": rng.randrange(n_stripes),
                        "seed": rng.getrandbits(31)})
        elif kind == "scrub":
            ops.append({"op": "scrub"})
            for col in [c for c in impaired if impair_kind[c] == "rot"]:
                impaired.discard(col)
                del impair_kind[col]

    if chaos:
        # Convergence epilogue: the self-healing machinery must drive
        # whatever the campaign broke back to all-clean.  Parity is
        # checked first, before a deep scrub could quietly repair a
        # strip that no write left stale.
        ops.append({"op": "check_parity"})
        ops.append({"op": "heal"})
        for col in sorted(c for c in impaired if impair_kind[c] in ("disk", "latent")):
            ops.append({"op": "rebuild", "column": col})
        ops.append({"op": "scrub", "deep": True})
        ops.append({"op": "check_quiescent"})
    if objects:
        ops.append({"op": "check_objects"})
    ops.append({"op": "read_all"})
    sc.ops = ops
    return sc


# -- execution ----------------------------------------------------------------


def _payload(seed: int, length: int) -> bytes:
    return np.random.default_rng(seed).bytes(length)


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _first_diff(a: bytes, b: bytes) -> int:
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return i
    return n


def run_scenario(
    scenario: SimScenario, *, code_factory=make_code,
    tracer: Tracer | None = None,
) -> ScenarioResult:
    """Execute a scenario under virtual time; raises on any divergence.

    ``code_factory`` is the injectable seam the fuzzer's self-tests use
    to plant a known-buggy code and prove the harness catches it.

    When a ``tracer`` is supplied it is rebound to the scenario's
    :class:`~repro.sim.clock.VirtualClock` (its ``now`` is replaced) and
    installed as the active tracer for the run, so RPC, node-dispatch
    and engine schedule spans all land on the same virtual timeline.
    Because every span timestamp comes off the virtual clock, the trace
    digest is a pure function of the seed -- same seed, same spans.
    """

    async def main() -> ScenarioResult:
        clock = VirtualClock()
        transport = MemoryTransport()
        if tracer is not None:
            tracer.now = clock.time  # spans share the op timeline
        kwargs = {"p": scenario.p, "element_size": scenario.element_size}
        cluster_code = code_factory(scenario.code, scenario.k, **kwargs)
        model_code = code_factory(scenario.code, scenario.k, **kwargs)
        cluster = LocalCluster(
            cluster_code, scenario.n_stripes, scenario.n_nodes or None,
            transport=transport, clock=clock, tracer=tracer,
        )
        model = RAID6Array(model_code, scenario.n_stripes)
        trace: list = []

        def check_read(i: int, op: dict, offset: int, got: bytes) -> None:
            want = bytes(shadow[offset : offset + len(got)])
            if got != want:
                at = _first_diff(got, want)
                raise DivergenceError(
                    f"op[{i}] {op['op']}: cluster read diverges from shadow "
                    f"bytes at offset {offset + at}",
                    context={"op_index": i, "oracle": "cluster-vs-shadow",
                             "offset": offset + at, "op": op},
                )
            model_got = model.read(offset, len(got))
            if got != model_got:
                at = _first_diff(got, model_got)
                raise DivergenceError(
                    f"op[{i}] {op['op']}: cluster read diverges from the "
                    f"single-process RAID6Array at offset {offset + at}",
                    context={"op_index": i, "oracle": "cluster-vs-raid6array",
                             "offset": offset + at, "op": op},
                )

        async with cluster:
            arr = cluster.array(
                policy=SIM_POLICY, rng=random.Random(scenario.seed ^ 0x5EED)
            )
            shadow = bytearray(arr.capacity)
            sdb = arr.stripe_data_bytes

            # Object traffic attaches the gateway only when the op list
            # uses it (digest compatibility, like the chaos machinery).
            # Every object write is mirrored extent-by-extent into the
            # byte oracles, so raw read checks keep covering the array.
            gateway = None
            obj_shadow: dict[str, bytes] = {}
            if any(op["op"] in GATEWAY_OPS for op in scenario.ops):
                gateway = ObjectGateway(arr, cache_stripes=scenario.n_stripes)

            def mirror_object(name: str, data: bytes) -> None:
                pos = 0
                for ext in gateway.index[name].extents:
                    off = ext.stripe * sdb + ext.start
                    chunk = data[pos : pos + ext.length]
                    model.write(off, chunk)
                    shadow[off : off + len(chunk)] = chunk
                    pos += ext.length

            async def verify_object(i: int, op: dict, name: str) -> bytes:
                try:
                    got = await gateway.get(name)
                except IntegrityError as exc:
                    raise DivergenceError(
                        f"op[{i}] {op['op']}: object {name!r} readable but "
                        f"corrupt: {exc}",
                        context={"op_index": i, "oracle": "gateway-integrity",
                                 "name": name, "op": op},
                    ) from exc
                want = obj_shadow[name]
                if got != want:
                    at = _first_diff(got, want)
                    raise DivergenceError(
                        f"op[{i}] {op['op']}: object {name!r} diverges from "
                        f"its shadow at byte {at}",
                        context={"op_index": i, "oracle": "gateway-vs-shadow",
                                 "name": name, "offset": at, "op": op},
                    )
                return got

            # The self-healing and membership machinery attaches only
            # when the op list uses it, so plain scenarios replay with
            # their historical digests (a HealthMonitor installs circuit
            # breakers, which change the data path's failure handling).
            # The monitor turns a stopped node into a DEAD verdict and
            # heals a dead column onto a spare; the rebalancer converges
            # a pool's routing onto placement.
            scrubber = monitor = rebalancer = None
            if any(op["op"] in CHAOS_OPS | ELASTIC_OPS for op in scenario.ops):
                monitor = cluster.auto_healer(
                    arr, miss_threshold=2, probe_timeout=0.2, rebuild_batch=2
                )
                rebalancer = cluster.rebalancer(arr)
            if any(op["op"] in CHAOS_OPS for op in scenario.ops):
                scrubber = ClusterScrubber(arr, window=2)

            async def read_all(i: int, op: dict) -> str:
                got = await arr.read(0, arr.capacity)
                check_read(i, op, 0, got)
                # ... and stripe by stripe: a batch that routed a
                # stripe to another stripe's holder would pass a
                # batched read-back of its own writes.
                for stripe in range(arr.n_stripes):
                    buf = await arr.read_stripe(stripe)
                    check_read(i, op, stripe * sdb, bytes(arr._stripe_payload(buf)))
                return _sha(got)

            for i, op in enumerate(scenario.ops):
                kind = op["op"]
                record: dict = {"i": i, "op": kind}
                if kind == "write":
                    offset, length = int(op["offset"]), int(op["length"])
                    data = _payload(int(op["seed"]), length)
                    await arr.write(offset, data)
                    model.write(offset, data)
                    shadow[offset : offset + length] = data
                    record["sha"] = _sha(data)
                elif kind == "read":
                    offset, length = int(op["offset"]), int(op["length"])
                    got = await arr.read(offset, length)
                    check_read(i, op, offset, got)
                    record["sha"] = _sha(got)
                elif kind == "read_all":
                    record["sha"] = await read_all(i, op)
                elif kind == "stop_node":
                    await cluster.stop_node(int(op["column"]))
                elif kind == "fault":
                    col = int(op["column"])
                    cluster.nodes[col].faults = NetworkFaultPlan.from_header(
                        op["plan"]
                    )
                elif kind == "disk_fail":
                    cluster.nodes[int(op["column"])].disk.fail()
                elif kind == "latent":
                    cluster.nodes[int(op["column"])].disk.mark_latent_error(
                        int(op["stripe"])
                    )
                elif kind == "rebuild":
                    col = int(op["column"])
                    addr = await cluster.start_replacement(col)
                    sched = RebuildScheduler(arr, batch_stripes=2)
                    rebuilt = await sched.rebuild_column(col, addr)
                    cluster.promote_replacement(col)
                    record["stripes"] = rebuilt
                elif kind == "corrupt":
                    cluster.nodes[int(op["column"])].disk.corrupt(
                        int(op["stripe"]), seed=int(op["seed"])
                    )
                elif kind == "scrub":
                    rep = await scrubber.scrub(deep=bool(op.get("deep")))
                    record["corrected"] = rep.corrected
                    record["uncorrectable"] = rep.uncorrectable
                    record["deferred"] = rep.deferred
                    record["fast"] = rep.fast_path_hits
                elif kind == "gateway_put":
                    name = op["name"]
                    data = _payload(int(op["seed"]), int(op["size"]))
                    stat = await gateway.put(name, data)
                    obj_shadow[name] = data
                    mirror_object(name, data)
                    record["sha"] = _sha(data)
                    record["stripes"] = list(stat.stripes)
                elif kind == "gateway_get":
                    name = op["name"]
                    if name in obj_shadow:
                        got = await verify_object(i, op, name)
                        record["sha"] = _sha(got)
                    else:
                        try:
                            await gateway.get(name)
                        except ObjectNotFoundError:
                            record["missing"] = True
                        else:
                            raise DivergenceError(
                                f"op[{i}] gateway_get: read of deleted/"
                                f"missing object {name!r} succeeded",
                                context={"op_index": i,
                                         "oracle": "gateway-directory",
                                         "name": name, "op": op},
                            )
                elif kind == "gateway_update":
                    name, offset = op["name"], int(op["offset"])
                    data = _payload(int(op["seed"]), int(op["length"]))
                    await gateway.update(name, offset, data)
                    blob = bytearray(obj_shadow[name])
                    blob[offset : offset + len(data)] = data
                    obj_shadow[name] = bytes(blob)
                    mirror_object(name, obj_shadow[name])
                    record["sha"] = _sha(obj_shadow[name])
                elif kind == "gateway_delete":
                    await gateway.delete(op["name"])
                    obj_shadow.pop(op["name"])
                elif kind == "check_objects":
                    for name in sorted(obj_shadow):
                        await verify_object(i, op, name)
                    record["objects"] = len(obj_shadow)
                elif kind == "join":
                    record["node"] = await cluster.add_node(live=True)
                elif kind == "leave":
                    node_id = int(op["node"])
                    await cluster.stop_node(node_id)
                    # The heartbeat monitor, not the test, renders the
                    # DEAD verdict -- miss_threshold consecutive probes.
                    for _ in range(monitor.miss_threshold):
                        await monitor.probe_once()
                    record["state"] = arr.membership.state_of(node_id).value
                elif kind == "drain":
                    record["moved"] = await rebalancer.drain(int(op["node"]))
                elif kind == "epoch_bump":
                    record["epoch"] = arr.membership.bump()
                elif kind == "rebalance":
                    if op.get("crash_after") is not None:
                        rebalancer.crash.arm(after=int(op["crash_after"]))
                    try:
                        record["moved"] = await rebalancer.run_until_converged()
                    except ClientCrash:
                        # The coordinator died mid-migration: each
                        # column routes to its old holder or its new
                        # one, and every byte must still read back.
                        record["crashed"] = True
                        record["sha"] = await read_all(i, op)
                    rebalancer.crash = ClientCrashPoint()  # disarmed
                elif kind == "check_placement":
                    # Quiescence for churn: routing has converged onto
                    # placement, every holder is LIVE, and every strip
                    # is durably CRC-clean on its node -- full
                    # redundancy, zero misplaced stripes.
                    mis = rebalancer.misplaced()
                    if mis:
                        raise DivergenceError(
                            f"op[{i}] check_placement: stripes {mis} still "
                            "misplaced after convergence",
                            context={"op_index": i, "oracle": "placement",
                                     "stripes": mis, "op": op},
                        )
                    pool = set(arr.membership.placement_pool())
                    for s in range(arr.n_stripes):
                        holders = arr.holders(s)
                        off_pool = sorted(set(holders) - pool)
                        if off_pool:
                            raise DivergenceError(
                                f"op[{i}] check_placement: stripe {s} routed "
                                f"to non-live nodes {off_pool}",
                                context={"op_index": i, "oracle": "placement",
                                         "stripe": s, "nodes": off_pool,
                                         "op": op},
                            )
                        for node_id in holders:
                            reply, _ = await arr.client_for_node(
                                node_id
                            ).request("scrub-read", {"stripe": s})
                            if reply.get("match") != [True]:
                                raise DivergenceError(
                                    f"op[{i}] check_placement: stripe {s} "
                                    f"strip on {node_id} fails its sidecar",
                                    context={"op_index": i,
                                             "oracle": "placement",
                                             "stripe": s, "node": node_id,
                                             "op": op},
                                )
                    record["epoch"] = arr.membership.epoch
                    record["quiescent"] = True
                elif kind == "heal":
                    for _ in range(monitor.miss_threshold):
                        await monitor.probe_once()
                    record["healed"] = await monitor.heal()
                elif kind == "check_parity":
                    # Once every delayed request has woken, a stripe off
                    # the dirty list whose strips all answer is a
                    # codeword.  A request that landed after a newer
                    # write, or a delta applied twice, is not.
                    await clock.sleep(SETTLE_S)
                    checked = 0
                    for stripe in range(arr.n_stripes):
                        buf = cluster_code.alloc_stripe()
                        cols = list(range(cluster_code.n_cols))
                        lost = await arr._gather(
                            [(col, [stripe]) for col in cols], {stripe: buf}
                        )
                        if lost[stripe]:
                            continue
                        if stripe in arr.dirty_stripes:
                            continue
                        checked += 1
                        if not cluster_code.verify(buf):
                            raise DivergenceError(
                                f"op[{i}] check_parity: stripe {stripe} is not "
                                "a codeword, and no write left it stale",
                                context={"op_index": i, "oracle": "parity",
                                         "stripe": stripe, "op": op},
                            )
                    record["checked"] = checked
                elif kind == "check_quiescent":
                    rep = await scrubber.scrub(deep=True)
                    if not rep.healthy:
                        raise DivergenceError(
                            f"op[{i}] check_quiescent: scrub not clean "
                            f"(uncorrectable={rep.uncorrectable}, "
                            f"deferred={rep.deferred}, "
                            f"detected_only={rep.detected_only})",
                            context={"op_index": i, "oracle": "quiescence",
                                     "op": op},
                        )
                    if arr.dirty_stripes:
                        raise DivergenceError(
                            f"op[{i}] check_quiescent: dirty stripes remain "
                            f"{sorted(arr.dirty_stripes)}",
                            context={"op_index": i, "oracle": "quiescence",
                                     "op": op},
                        )
                    if gateway is not None:
                        # Quiescence for object traffic: every surviving
                        # object must be readable and byte-correct (a
                        # CRC pass on stale bytes would be a silent
                        # readable-but-corrupt state).
                        for name in sorted(obj_shadow):
                            await verify_object(i, op, name)
                        record["objects"] = len(obj_shadow)
                    record["quiescent"] = True
                else:
                    raise ValueError(f"unknown scenario op {kind!r}")
                record["t"] = round(clock.time(), 9)
                trace.append(record)

            counters = arr.metrics.snapshot()["counters"]
        trace.append({"counters": counters})
        digest = _sha(
            json.dumps(trace, sort_keys=True, separators=(",", ":")).encode()
        )
        return ScenarioResult(
            digest=digest,
            trace=trace,
            virtual_end=clock.time(),
            counters=counters,
        )

    scope = use_tracer(tracer) if tracer is not None else contextlib.nullcontext()
    with scope:  # activate so engine schedule spans are recorded too
        return asyncio.run(main())
