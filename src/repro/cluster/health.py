"""Failure detection and degraded-mode management for the cluster.

Three mechanisms close the gap between "a node misbehaves" and "the
operator notices":

* **Heartbeats** -- :class:`HealthMonitor` pings every probed node of
  the array's membership table on a fixed cadence with a one-shot
  probe (no retries: the cadence *is* the retry loop), counts
  consecutive misses per node, and writes its verdicts into the table:
  ``miss_threshold`` misses mark a node DEAD, an answer brings a
  JOINING or DEAD node LIVE.
* **Circuit breakers** -- each node gets a :class:`CircuitBreaker`
  (installed on :attr:`ClusterArray.breakers`) that the data path
  consults before every RPC.  A node that keeps timing out is
  short-circuited to an immediate
  :class:`~repro.cluster.client.NodeUnavailableError` -- the degraded
  read path takes over instantly instead of burning a retry budget per
  request -- until a half-open trial shows the node recovered.  The
  breaker runs on an injectable clock, so the sim drives it in virtual
  time.
* **Auto-heal** -- a DEAD node that holds one column of every stripe
  (a column-ordered array) is healed by asking ``spare_provider`` for
  a replacement address, streaming a
  :class:`~repro.cluster.rebuild.RebuildScheduler` rebuild onto it and
  repointing the node's id: fault to restored redundancy with no human
  in the loop.  Under rendezvous placement a DEAD node's strips are
  the :class:`~repro.cluster.rebalance.Rebalancer`'s to re-place;
  ``on_change`` wakes it.

Slow-but-alive nodes are the hedged reads' job
(``ClusterArray(hedge_after=...)``), not the breaker's: hedging
absorbs tail latency, the breaker absorbs hard unavailability.
"""

from __future__ import annotations

import asyncio
import enum

from repro.cluster.client import (
    ClusterArray,
    ClusterError,
    NodeClient,
    RetryPolicy,
    cached_client,
)
from repro.cluster.membership import PROBED_STATES, NodeState
from repro.cluster.rebuild import RebuildScheduler
from repro.sim.clock import Clock

__all__ = ["BreakerState", "CircuitBreaker", "HealthMonitor"]


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Per-node request gate with the classic three-state life cycle.

    CLOSED passes everything; ``failure_threshold`` consecutive
    failures trip it OPEN, which rejects instantly until
    ``reset_timeout`` clock-seconds pass; the first request after the
    cooldown runs as a HALF_OPEN trial -- success closes the breaker,
    failure re-opens it for another cooldown.  Time comes from the
    injected clock, never the wall.

    ``min_open_interval`` is the flap guard: a success reported while
    the breaker is still OPEN (e.g. an out-of-band probe racing the
    data path) is *ignored* for the first ``min_open_interval``
    clock-seconds after the trip, counted on the ``breaker_flaps``
    metric instead of closing the breaker.  Without it, alternating
    success/failure oscillates the breaker every probe and the data
    path never gets a stable degraded mode.  The default of ``0``
    keeps the historical close-on-any-success behaviour; the guard
    never delays the HALF_OPEN trial, which may still close the
    breaker after ``reset_timeout``.  :meth:`reset` bypasses the guard
    for the cases where the node genuinely changed (rebuild onto a
    fresh replacement).
    """

    def __init__(
        self,
        clock: Clock,
        *,
        failure_threshold: int = 3,
        reset_timeout: float = 5.0,
        min_open_interval: float = 0.0,
        metrics=None,
    ) -> None:
        self.clock = clock
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout = float(reset_timeout)
        self.min_open_interval = float(min_open_interval)
        self.metrics = metrics
        self._state = BreakerState.CLOSED
        self._failures = 0
        self._opened_at = 0.0

    @property
    def state(self) -> BreakerState:
        if (
            self._state is BreakerState.OPEN
            and self.clock.time() - self._opened_at >= self.reset_timeout
        ):
            self._state = BreakerState.HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """Whether a request may go out right now."""
        return self.state is not BreakerState.OPEN

    def record_success(self) -> None:
        if (
            self.state is BreakerState.OPEN
            and self.clock.time() - self._opened_at < self.min_open_interval
        ):
            # Flap guard: the breaker just tripped; one lucky success
            # does not un-trip it.  Count the suppressed flap and keep
            # the cooldown running.
            if self.metrics is not None:
                self.metrics.counter("breaker_flaps").inc()
            return
        self.reset()

    def reset(self) -> None:
        """Force-close, bypassing the flap guard (node was replaced)."""
        self._failures = 0
        self._state = BreakerState.CLOSED

    def record_failure(self) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._trip()
            return
        self._failures += 1
        if self._failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self._state = BreakerState.OPEN
        self._failures = 0
        self._opened_at = self.clock.time()

    def __repr__(self) -> str:
        return f"CircuitBreaker({self.state.value}, failures={self._failures})"


class HealthMonitor:
    """Heartbeat prober + auto-heal driver for one :class:`ClusterArray`.

    Constructing the monitor installs a breaker for every probed node
    on ``array.breakers``.  Drive it either with the background loop
    (:meth:`start` / :meth:`stop`) or, in deterministic tests, by
    calling :meth:`probe_once` / :meth:`heal` directly.

    ``spare_provider`` is an async callable ``node_id -> address`` that
    produces a blank replacement for a dead node (e.g.
    :meth:`LocalCluster.start_replacement`); ``on_rebuilt`` is called
    with the node id after the rebuild repoints it (e.g.
    :meth:`LocalCluster.promote_replacement`).  In a column-ordered
    array the node id is the column number.  Without a provider the
    monitor only observes.  ``on_change(epoch)`` fires after any round
    that changed the table.
    """

    def __init__(
        self,
        array: ClusterArray,
        *,
        interval: float = 1.0,
        miss_threshold: int = 3,
        probe_timeout: float = 0.5,
        failure_threshold: int = 3,
        reset_timeout: float = 5.0,
        min_open_interval: float = 0.0,
        spare_provider=None,
        on_rebuilt=None,
        on_change=None,
        rebuild_batch: int = 16,
    ) -> None:
        if rebuild_batch < 1:
            raise ValueError(f"rebuild_batch must be positive, got {rebuild_batch}")
        self.array = array
        self.membership = array.membership
        self.clock = array.clock
        self.interval = float(interval)
        self.miss_threshold = int(miss_threshold)
        self.probe_policy = RetryPolicy(attempts=1, timeout=float(probe_timeout))
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout = float(reset_timeout)
        self.min_open_interval = float(min_open_interval)
        self.spare_provider = spare_provider
        self.on_rebuilt = on_rebuilt
        self.on_change = on_change
        self.rebuild_batch = int(rebuild_batch)
        self.misses: dict = {}
        #: nodes whose rebuild is running
        self.healing: set = set()
        #: spares of failed heals, kept for the next attempt (node id -> address)
        self._spares: dict = {}
        self._probes: dict = {}
        self._task: asyncio.Task | None = None
        for node_id in self.membership.probed():
            self._breaker(node_id)

    def _breaker(self, node_id) -> CircuitBreaker:
        breakers = self.array.breakers
        if node_id not in breakers:
            breakers[node_id] = CircuitBreaker(
                self.clock,
                failure_threshold=self.failure_threshold,
                reset_timeout=self.reset_timeout,
                min_open_interval=self.min_open_interval,
                metrics=self.array.metrics,
            )
        return breakers[node_id]

    # -- probing -------------------------------------------------------------

    def _probe_client(self, node_id) -> NodeClient:
        # One per node, its connection kept open between rounds, and
        # rebuilt when the node's address changes (a replacement, a
        # restart); shares the array's seams (and metrics) for
        # determinism.
        array = self.array
        return cached_client(
            self._probes, node_id, self.membership.address_of(node_id),
            lambda address: NodeClient(
                address,
                policy=self.probe_policy,
                metrics=array.metrics,
                transport=array.transport,
                clock=array.clock,
                tracer=array.tracer,
            ),
        )

    async def probe_once(self) -> dict:
        """One heartbeat round; returns per-node liveness.

        Updates miss counters, feeds the breakers and writes verdicts
        into the table (healing is :meth:`heal`'s job, so deterministic
        tests can split the two).  A node that left the probed set while
        the round was out gets no verdict.
        """
        table = self.membership
        targets = table.probed()
        epoch = table.epoch
        for gone in sorted(self._probes.keys() - set(targets)):
            self._probes.pop(gone).close()

        async def probe(node_id) -> bool:
            try:
                await self._probe_client(node_id).request("ping")
            except ClusterError:
                return False
            return True

        alive = dict(zip(targets, await asyncio.gather(*(probe(n) for n in targets))))
        metrics = self.array.metrics
        for node_id, ok in alive.items():
            entry = table.nodes.get(node_id)
            if entry is None or entry.state not in PROBED_STATES:
                continue
            breaker = self._breaker(node_id)
            if ok:
                self.misses[node_id] = 0
                breaker.record_success()
                if (
                    entry.state in (NodeState.JOINING, NodeState.DEAD)
                    and node_id not in self.healing
                ):
                    table.mark_live(node_id)  # joined, or came back on its own
            else:
                self.misses[node_id] = self.misses.get(node_id, 0) + 1
                breaker.record_failure()
                metrics.counter("heartbeat_misses").inc()
                if (
                    self.misses[node_id] >= self.miss_threshold
                    and entry.state is not NodeState.DEAD
                ):
                    table.mark_dead(node_id)
                    metrics.counter("nodes_dead").inc()
        self._changed(epoch)
        return alive

    def _changed(self, epoch: int) -> None:
        if self.membership.epoch != epoch and self.on_change is not None:
            self.on_change(self.membership.epoch)

    def dead(self) -> list:
        """DEAD node ids, sorted."""
        return sorted(
            n for n, e in self.membership.nodes.items() if e.state is NodeState.DEAD
        )

    # -- healing -------------------------------------------------------------

    async def heal(self) -> list:
        """Rebuild every DEAD column-holding node onto a spare; returns
        the node ids healed.

        Sequential by design: RAID-6 tolerates two losses, and a
        rebuild window already reads k columns.  A rebuild that
        fails (say a third column is down) is counted on
        ``heals_failed`` and retried on a later round, onto the same
        spare.
        """
        if self.spare_provider is None:
            return []
        array = self.array
        epoch = self.membership.epoch
        healed = []
        for node_id in self.dead():
            first = array._placed(0)
            column = first.index(node_id) if node_id in first else None
            if (
                column is None
                or node_id in self.healing
                or array.column_node(column) != node_id
            ):
                continue  # placed by rendezvous: the rebalancer's to re-place
            self.healing.add(node_id)
            try:
                address = self._spares.pop(node_id, None)
                if address is None:
                    address = await self.spare_provider(node_id)
                try:
                    await RebuildScheduler(
                        array, batch_stripes=self.rebuild_batch
                    ).rebuild_column(column, address)
                except ClusterError:
                    self._spares[node_id] = address
                    array.metrics.counter("heals_failed").inc()
                    continue
            finally:
                self.healing.discard(node_id)
            if self.on_rebuilt is not None:
                self.on_rebuilt(node_id)
            # The rebuild repointed the id (LIVE again, breaker reset:
            # the flap guard must not hold a brand-new node open).
            self.misses[node_id] = 0
            array.metrics.counter("nodes_healed").inc()
            healed.append(node_id)
        self._changed(epoch)
        return healed

    # -- background driving --------------------------------------------------

    def start(self) -> asyncio.Task:
        """Run probe + heal rounds forever as a background task."""
        if self._task is not None and not self._task.done():
            raise RuntimeError("health loop already running")

        async def loop() -> None:
            while True:
                await self.probe_once()
                await self.heal()
                await self.clock.sleep(self.interval)

        self._task = asyncio.get_running_loop().create_task(loop())
        return self._task

    async def stop(self) -> None:
        """Cancel the loop; re-raises whatever ended it early."""
        task, self._task = self._task, None
        for probe in self._probes.values():
            probe.close()
        self._probes.clear()
        if task is None:
            return
        if not task.done():
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        elif not task.cancelled():
            task.result()

    # -- introspection -------------------------------------------------------

    def status(self) -> dict:
        """Operator view: per-node state, misses, breaker, healing."""
        table, breakers = self.membership, self.array.breakers
        return {
            "epoch": table.epoch,
            "nodes": [
                {
                    **entry.to_dict(),
                    "misses": self.misses.get(node_id, 0),
                    "healing": node_id in self.healing,
                    "breaker": breakers[node_id].state.value
                    if node_id in breakers else "closed",
                }
                for node_id, entry in sorted(table.nodes.items())
            ],
        }
