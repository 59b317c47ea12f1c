"""Failure detection and degraded-mode management for the cluster.

Three mechanisms close the gap between "a node misbehaves" and "the
operator notices":

* **Heartbeats** -- :class:`HealthMonitor` pings every column on a
  fixed cadence with a one-shot probe (no retries: the cadence *is*
  the retry loop) and counts consecutive misses per column.
* **Circuit breakers** -- each column gets a :class:`CircuitBreaker`
  (installed on :attr:`ClusterArray.breakers`) that the data path
  consults before every RPC.  A column that keeps timing out is
  short-circuited to an immediate
  :class:`~repro.cluster.client.NodeUnavailableError` -- the degraded
  read path takes over instantly instead of burning a retry budget per
  request -- until a half-open trial shows the node recovered.  The
  breaker runs on an injectable clock, so the sim drives it in virtual
  time.
* **Auto-heal** -- once a column's consecutive misses cross the
  threshold, the monitor declares it failed, asks ``spare_provider``
  for a replacement address, streams a
  :class:`~repro.cluster.rebuild.RebuildScheduler` rebuild onto it,
  and repoints the array: fault to restored redundancy with no human
  in the loop.

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

    Constructing the monitor installs a breaker per column on
    ``array.breakers``.  Drive it either with the background loop
    (:meth:`start` / :meth:`stop`) or, in deterministic tests, by
    calling :meth:`probe_once` / :meth:`heal` directly.

    ``spare_provider`` is an async callable ``column -> address`` that
    produces a blank replacement node (e.g.
    :meth:`LocalCluster.start_replacement`); ``on_rebuilt`` is called
    with the column after the rebuild repoints the array (e.g.
    :meth:`LocalCluster.promote_replacement`).  Without a provider the
    monitor only observes.
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
        rebuild_batch: int = 16,
    ) -> None:
        self.array = array
        self.clock = array.clock
        self.interval = float(interval)
        self.miss_threshold = int(miss_threshold)
        self.probe_policy = RetryPolicy(attempts=1, timeout=float(probe_timeout))
        self.spare_provider = spare_provider
        self.on_rebuilt = on_rebuilt
        self.rebuild_batch = int(rebuild_batch)
        n = array.code.n_cols
        self.misses = [0] * n
        self.failed = [False] * n
        self.healing: set[int] = set()
        array.breakers = [
            CircuitBreaker(
                self.clock,
                failure_threshold=failure_threshold,
                reset_timeout=reset_timeout,
                min_open_interval=min_open_interval,
                metrics=array.metrics,
            )
            for _ in range(n)
        ]
        self._probes: dict[int, NodeClient] = {}
        self._task: asyncio.Task | None = None

    # -- probing -------------------------------------------------------------

    def _probe_client(self, column: int) -> NodeClient:
        # One per column, its connection kept open between rounds, and
        # rebuilt when the array repoints the column; shares the
        # array's seams (and metrics) for determinism.
        array = self.array
        return cached_client(
            self._probes, column, array.clients[column].address,
            lambda address: NodeClient(
                address,
                policy=self.probe_policy,
                metrics=array.metrics,
                transport=array.transport,
                clock=array.clock,
                tracer=array.tracer,
            ),
        )

    async def probe_once(self) -> list[bool]:
        """One heartbeat round; returns per-column liveness.

        Updates miss counters and feeds the breakers, then marks any
        column over the miss threshold as failed (auto-heal is
        :meth:`heal`'s job, so deterministic tests can split the two).
        """
        array = self.array
        cols = range(array.code.n_cols)

        async def probe(col: int) -> bool:
            try:
                await self._probe_client(col).request("ping")
            except ClusterError:
                return False
            return True

        alive = list(await asyncio.gather(*(probe(c) for c in cols)))
        for col, ok in zip(cols, alive):
            breaker = array.breakers[col]
            if ok:
                self.misses[col] = 0
                if self.failed[col] and col not in self.healing:
                    self.failed[col] = False  # came back on its own
                breaker.record_success()
            else:
                self.misses[col] += 1
                breaker.record_failure()
                array.metrics.counter("heartbeat_misses").inc()
                if self.misses[col] >= self.miss_threshold and not self.failed[col]:
                    self.failed[col] = True
                    array.metrics.counter("columns_failed").inc()
        return alive

    # -- healing -------------------------------------------------------------

    async def heal(self) -> list[int]:
        """Rebuild every failed column onto a spare; returns columns healed.

        Sequential by design: RAID-6 tolerates two losses, and a
        rebuild already reads every surviving column.
        """
        if self.spare_provider is None:
            return []
        healed: list[int] = []
        for col, bad in enumerate(self.failed):
            if not bad or col in self.healing:
                continue
            self.healing.add(col)
            try:
                address = await self.spare_provider(col)
                scheduler = RebuildScheduler(
                    self.array, batch_stripes=self.rebuild_batch
                )
                await scheduler.rebuild_column(col, address)
                if self.on_rebuilt is not None:
                    self.on_rebuilt(col)
            finally:
                self.healing.discard(col)
            self.failed[col] = False
            self.misses[col] = 0
            # reset(), not record_success(): the column is a brand-new
            # node, so the flap guard must not keep it short-circuited.
            self.array.breakers[col].reset()
            self.array.metrics.counter("columns_healed").inc()
            healed.append(col)
        return healed

    # -- background driving --------------------------------------------------

    def start(self) -> asyncio.Task:
        """Run probe + heal rounds forever as a background task."""
        if self._task is not None and not self._task.done():
            raise RuntimeError("health loop already running")

        async def loop() -> None:
            while True:
                await self.probe_once()
                if any(self.failed):
                    await self.heal()
                await self.clock.sleep(self.interval)

        self._task = asyncio.get_running_loop().create_task(loop())
        return self._task

    async def stop(self) -> None:
        task, self._task = self._task, None
        if task is not None and not task.done():
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        for probe in self._probes.values():
            probe.close()
        self._probes.clear()

    # -- introspection -------------------------------------------------------

    def status(self) -> dict:
        """Operator view: per-column liveness, breaker state, healing."""
        return {
            "columns": [
                {
                    "column": col,
                    "misses": self.misses[col],
                    "failed": self.failed[col],
                    "healing": col in self.healing,
                    "breaker": self.array.breakers[col].state.value,
                }
                for col in range(self.array.code.n_cols)
            ]
        }
