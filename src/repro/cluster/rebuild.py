"""Background rebuild of a lost column onto a replacement node.

The distributed analogue of :meth:`repro.array.raid6.RAID6Array.rebuild`:
stripes are streamed in bounded windows (``repro.parallel.iter_batches``)
through a :class:`~repro.parallel.BatchCoder` -- the same batch decode
path the throughput benchmarks exercise -- and the reconstructed strips
are pushed to a fresh node.  Because the scheduler is an ordinary
asyncio task, the array keeps serving reads and writes while the
rebuild drains in the background; progress is visible live through the
``rebuild_*`` counters.

A window costs one ``get`` per column its decode reads -- for a lost
Liberation data column the other data columns and P, k in all, never
Q -- and one ``put`` to the replacement, each carrying every stripe of
the window.  The window decodes where its strips landed: each source
column is its reply frame's rows, and the rebuilt column is one
buffer the rebuild allocates once, whose rows the push sends.  The
push lists each rebuilt strip's CRC-32.  Where P is the row parity, a
lost data column that decoded alone is the XOR of the other data
columns and P, and a lost P the XOR of the data columns, so its CRC is
folded from the CRCs those sources were checked with, and the
replacement's put check holds the decode to that fold; any other strip
is hashed as built.  A rebuild tolerates a *second* concurrent loss: a
column a window's fetch loses, for any reason (unreachable, unreadable,
rotted or stale), joins that stripe's erasure pattern, and one more
fetch widens to what the two-erasure decode reads, up to the code's
two-column budget.  The decode restores the window's stale columns as
a by-product, and they go back to their nodes through the array's
write-back (:meth:`~repro.cluster.client.ClusterArray._write_back`),
one ``put`` per column and holder -- the one the scrub uses, which
sends nothing for a window with no stale column.  Each window holds
its stripes' locks from the fetch to the last put, so a write cannot
land between them and be lost on the replacement.

A column rebuild needs one node to hold the column for every stripe
(a column-ordered array); under rendezvous placement a lost node's
strips are re-placed by the :class:`~repro.cluster.rebalance.Rebalancer`.
"""

from __future__ import annotations

import asyncio
import zlib

import numpy as np

from repro.cluster.client import ClusterArray, LandedStrips, NodeClient
from repro.parallel import BatchCoder, iter_batches
from repro.utils.crc import crc32_xor

__all__ = ["RebuildScheduler"]


class RebuildScheduler:
    """Streams a column rebuild through batch decodes.

    ``batch_stripes``, at least 1, bounds memory: one window's reply
    frames and the rebuilt column's buffer.
    """

    def __init__(self, array: ClusterArray, *, batch_stripes: int = 16) -> None:
        if batch_stripes < 1:
            raise ValueError(f"batch_stripes must be positive, got {batch_stripes}")
        self.array = array
        self.batch_stripes = int(batch_stripes)
        self.coder = BatchCoder(array.code)
        self._task: asyncio.Task | None = None
        #: ``(stripes_done, stripes_total)`` of the current/last rebuild
        self.progress = (0, 0)

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
        On success the node that held the column is repointed at it,
        restoring full redundancy.  Returns the number of stripes
        rebuilt.

        Raises :class:`ValueError` before any RPC, and before asking
        the provider, when no single node holds ``column`` of every
        stripe.
        """
        array = self.array
        code = array.code
        # Validate before asking the provider: a provider may start a
        # spare node for the column it is handed.
        if not 0 <= column < code.n_cols:
            raise ValueError(f"column {column} out of range [0, {code.n_cols})")
        node_id = array.column_node(column)
        if node_id is None:
            raise ValueError(
                f"column {column} is spread over several nodes; a rebuild "
                "needs one node per column (the rebalancer re-places spread "
                "strips)"
            )
        if address is None:
            if target_provider is None:
                raise ValueError("need an address or a target_provider")
            address = await target_provider(column)
        array.metrics.counter("rebuild_stripes_total").inc(array.n_stripes)
        self.progress = (0, array.n_stripes)
        # Share the array's transport/clock seam so rebuilds run (and
        # replay deterministically) under simulation too.
        replacement = array._make_client(address)
        try:
            done = await self._rebuild_windows(column, replacement)
        except BaseException:
            # Failed or cancelled: no one adopts the client, so its
            # pooled connections close here.
            replacement.close()
            raise
        array.replace_node(node_id, replacement)
        return done

    async def _rebuild_windows(self, column: int, replacement: NodeClient) -> int:
        """Rebuild ``column`` window by window onto ``replacement``;
        returns the stripes rebuilt.

        A window decodes from its reply frames through :attr:`coder`
        (:meth:`~repro.cluster.client.ClusterArray._decode_landed`) into
        ``column``'s buffer, ``[stripes, rows, element_size]``, which is
        allocated once and zeroed per window (the last, short window
        uses a prefix); row ``i`` is the strip the push sends for the
        window's ``i``-th stripe.
        """
        array = self.array
        code = array.code
        metrics = array.metrics
        size = (min(self.batch_stripes, array.n_stripes), code.rows, code.element_size)
        rebuilt = np.empty(size, np.uint8)
        done = 0
        for start, stop in iter_batches(array.n_stripes, self.batch_stripes):
            stripes = list(range(start, stop))
            out = rebuilt[: stop - start]
            async with array.stripe_locks(stripes):
                # Columns on the dirty list hold *stale* strips, which
                # join the erasure pattern: the rebuild neither fetches
                # them nor bakes their old bytes into the replacement,
                # and the decode recovers their fresh strips as a
                # by-product.  One `get` per column the decode reads
                # carries the whole window.
                erasures = {
                    s: {column, *array.dirty_stripes.get(s, ())} for s in stripes
                }
                crcs: dict[tuple[int, int], int] = {}
                strips = {s: LandedStrips() for s in stripes}
                await array._fetch_for(strips, erasures, {column}, crcs)
                out.fill(0)
                # Yield before the batch decode so queued traffic proceeds.
                await asyncio.sleep(0)
                array._decode_landed(
                    stripes, strips, erasures, coder=self.coder, into={column: out}
                )
                # ... and one `put` pushes it to the replacement, each
                # strip a row of the rebuilt column's buffer.
                listed = self._pushed_crcs(column, out, stripes, erasures, crcs)
                await asyncio.gather(*(
                    replacement.request(
                        "put",
                        {"stripes": frame, "crcs": [listed[s - start] for s in frame]},
                        [out[s - start] for s in frame],
                    )
                    for frame in array._frames(stripes)
                ))
                # The replacement holds the column's fresh bytes; the
                # window's other stale columns go back to their nodes.
                array._mark_columns(fresh={s: [column] for s in stripes})
                await array._write_back(
                    {s: sorted(array.dirty_stripes.get(s, set()) & erasures[s]) for s in stripes},
                    strips,
                )
            done += stop - start
            metrics.counter("rebuild_stripes_done").inc(stop - start)
            self.progress = (done, array.n_stripes)
        return done

    def _pushed_crcs(
        self, column: int, rebuilt: np.ndarray, stripes: list[int],
        erasures: dict[int, set[int]], crcs: dict[tuple[int, int], int],
    ) -> list[int]:
        """The CRC-32 the push lists for each stripe's rebuilt strip,
        row ``i`` of ``rebuilt`` for ``stripes[i]``.

        Where P is the row parity
        (:attr:`~repro.codes.base.RAID6Code.p_is_row_parity`), a lost
        data column is the XOR of the other data columns and P, and a
        lost P the XOR of the data columns.  So a strip that decoded
        alone, from sources whose CRCs the fetch kept in ``crcs``, lists
        the fold of those k CRCs (:func:`~repro.utils.crc.crc32_xor`),
        and the replacement's check of what it stores holds the decode
        to it.  Every other strip (Q's among them) is hashed as built.
        """
        code = self.array.code
        sources = [c for c in range(code.p_col + 1) if c != column]
        fold = code.p_is_row_parity and column != code.q_col
        listed = []
        for i, stripe in enumerate(stripes):
            keys = [(stripe, c) for c in sources]
            if fold and erasures[stripe] == {column} and all(key in crcs for key in keys):
                listed.append(crc32_xor((crcs[key] for key in keys), code.strip_bytes))
            else:
                listed.append(zlib.crc32(rebuilt[i]))
        return listed
