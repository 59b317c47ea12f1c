"""Background rebuild of a lost column onto a replacement node.

The distributed analogue of :meth:`repro.array.raid6.RAID6Array.rebuild`:
stripes are streamed in bounded windows (``repro.parallel.iter_batches``)
through a :class:`~repro.parallel.BatchCoder` -- the same batch decode
path the throughput benchmarks exercise -- and the reconstructed strips
are pushed to a fresh node.  Because the scheduler is an ordinary
asyncio task, the array keeps serving reads and writes while the
rebuild drains in the background; progress is visible live through the
``rebuild_*`` counters.

A window costs one ``get`` per surviving column and one ``put`` to the
replacement, each carrying every stripe of the window.  A rebuild
tolerates a *second* concurrent loss: whatever columns turn out to be
unreachable while fetching a window are simply added to that window's
erasure pattern, up to the code's two-column budget.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.cluster.client import (
    ClusterArray,
    ClusterDegradedError,
    NodeUnavailableError,
    RemoteDiskError,
)
from repro.parallel import BatchCoder, alloc_batch, iter_batches

__all__ = ["RebuildScheduler"]


class RebuildScheduler:
    """Streams a column rebuild through batch decodes.

    ``batch_stripes`` bounds memory (one window of stripe buffers).
    """

    def __init__(self, array: ClusterArray, *, batch_stripes: int = 16) -> None:
        self.array = array
        self.batch_stripes = int(batch_stripes)
        self.coder = BatchCoder(array.code)
        self._task: asyncio.Task | None = None

    # -- progress ----------------------------------------------------------

    @property
    def progress(self) -> tuple[int, int]:
        """``(stripes_done, stripes_total)`` of the current/last rebuild."""
        m = self.array.metrics
        return m.get("rebuild_stripes_done"), m.get("rebuild_stripes_total")

    # -- background driving ------------------------------------------------

    def start(self, column: int, address: tuple[str, int]) -> asyncio.Task:
        """Launch ``rebuild_column`` as a background task."""
        if self._task is not None and not self._task.done():
            raise RuntimeError("a rebuild is already running")
        self._task = asyncio.get_running_loop().create_task(
            self.rebuild_column(column, address)
        )
        return self._task

    async def wait(self) -> int:
        """Await the background rebuild; returns stripes rebuilt."""
        if self._task is None:
            raise RuntimeError("no rebuild was started")
        return await self._task

    # -- the rebuild proper ------------------------------------------------

    async def rebuild_column(
        self,
        column: int,
        address: tuple[str, int] | None = None,
        *,
        target_provider=None,
    ) -> int:
        """Reconstruct ``column`` onto a replacement node.

        The target is either a fixed ``address`` or, when ``address``
        is None, whatever the async ``target_provider(column)``
        callable picks at rebuild time -- the hook that lets healing
        choose placement-driven targets (a spare pool, the membership
        table's join queue) instead of a hard-wired spare.  The
        replacement node must already be listening (a blank
        :class:`~repro.cluster.node.StripNode` of the same geometry).
        On success the array's column is repointed at it, restoring
        full redundancy.  Returns the number of stripes rebuilt.

        Elastic arrays do not use column rebuilds at all: a dead node
        there is healed by the rebalancer re-placing its strips
        (decode on read, placement-chosen targets per stripe).
        """
        array = self.array
        code = array.code
        # Validate before asking the provider: a provider may start a
        # spare node for the column it is handed.
        if not 0 <= column < code.n_cols:
            raise ValueError(f"column {column} out of range [0, {code.n_cols})")
        if address is None:
            if target_provider is None:
                raise ValueError("need an address or a target_provider")
            address = await target_provider(column)
        metrics = array.metrics
        metrics.counter("rebuild_stripes_total").inc(array.n_stripes)
        survivors = [c for c in range(code.n_cols) if c != column]
        # Share the array's transport/clock seam so rebuilds run (and
        # replay deterministically) under simulation too.
        replacement = array._make_client(address)
        done = 0
        for start, stop in iter_batches(array.n_stripes, self.batch_stripes):
            stripes = list(range(start, stop))
            batch = alloc_batch(code, stop - start)
            # One `get` per survivor carries the whole window.
            lost = await array._gather(stripes, survivors, list(batch))
            also_lost = sorted({col for cols in lost.values() for col in cols})
            base = {column, *also_lost}
            # Columns on the dirty list hold *stale* strips: they
            # answered the fetch, but with pre-degraded-write data.
            # Folding them into the erasure pattern keeps the rebuild
            # from baking old bytes into the replacement -- and the
            # decode recovers their fresh strips as a by-product.
            patterns: list[tuple[int, ...]] = []
            for i in range(stop - start):
                stale = array.dirty_stripes.get(start + i, set())
                erasures = sorted(base | set(stale))
                if len(erasures) > 2:
                    raise ClusterDegradedError(
                        f"rebuild window [{start}, {stop}): columns {erasures} "
                        "lost or stale"
                    )
                for col in erasures:
                    batch[i, col] = 0
                patterns.append(tuple(erasures))
            # Yield before the batch decode so queued traffic proceeds.
            await asyncio.sleep(0)
            if len(set(patterns)) == 1:
                self.coder.decode(batch, list(patterns[0]))
            else:  # mixed dirtiness: per-stripe patterns
                for i, erasures in enumerate(patterns):
                    code.decode(batch[i], list(erasures))
            # ... and one `put` pushes it to the replacement.
            rebuilt = batch[:, column]
            await asyncio.gather(
                *(
                    replacement.request(
                        "put", {"stripes": frame},
                        np.ascontiguousarray(
                            rebuilt[frame[0] - start : frame[-1] - start + 1]
                        ).data,
                    )
                    for frame in array._frames(stripes)
                )
            )
            await self._freshen_dirty(start, patterns, batch, column)
            done += stop - start
            metrics.counter("rebuild_stripes_done").inc(stop - start)
        array.replace_node(column, replacement)
        return done

    async def _freshen_dirty(
        self, start: int, patterns: list, batch, column: int
    ) -> None:
        """Push decoded strips back to stale-but-reachable columns.

        The rebuilt column itself comes off each stripe's dirty set (the
        replacement got fresh bytes above); other stale columns take a
        direct rewrite, or stay listed for the scrubber if unreachable.
        """
        array = self.array
        for i, erasures in enumerate(patterns):
            stripe = start + i
            dirty = array.dirty_stripes.get(stripe)
            if not dirty:
                continue
            dirty.discard(column)
            for col in sorted(set(dirty) & set(erasures)):
                try:
                    await array._store_strip(col, stripe, batch[i, col])
                except (NodeUnavailableError, RemoteDiskError):
                    continue
                dirty.discard(col)
            if not dirty:
                array.dirty_stripes.pop(stripe, None)
