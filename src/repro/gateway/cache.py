"""Hot-stripe cache: LRU over stripe payloads, write-through invalidation.

The gateway's read path assembles objects from stripe payloads; under
a zipfian key distribution a handful of stripes serve most requests,
so caching whole payloads (the ``k * strip_bytes`` user span, parity
excluded) converts the hot tail of reads into memory copies.  Each
entry keeps its payload's CRC-32 with it, so a hit adds to an object's
integrity check without hashing the payload again.

Consistency is by *write-through invalidation*: every gateway write
goes straight to the cluster and then drops the touched stripe from
the cache, so the cache never holds bytes the cluster has superseded.
Population and invalidation both happen under the gateway's per-stripe
lock, which closes the read-stale-then-cache race (a payload read
before a write cannot be inserted after it).

Scrub repairs and rebuilds restore exactly the bytes that were
written, so they never invalidate -- a cached payload stays correct
across the whole self-healing vocabulary.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.obs.metrics import MetricsRegistry

__all__ = ["StripeCache"]


#: One cache entry: a stripe's payload and its CRC-32.
Entry = tuple[bytes, int]


class StripeCache:
    """Bounded LRU of ``stripe -> (payload bytes, CRC-32)``.

    ``capacity`` counts stripes, not bytes: every entry is exactly one
    stripe payload, so byte budgeting is ``capacity * stripe_bytes``.
    ``capacity == 0`` disables caching (every ``get`` misses, ``put``
    is a no-op), which the bench driver uses to measure the uncached
    baseline.
    """

    def __init__(self, capacity: int, *, metrics: MetricsRegistry | None = None) -> None:
        if capacity < 0:
            raise ValueError("cache capacity must be >= 0")
        self.capacity = int(capacity)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._entries: OrderedDict[int, Entry] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, stripe: int) -> bool:
        return stripe in self._entries

    def get(self, stripe: int) -> Entry | None:
        """The cached entry (refreshing recency), or None on a miss."""
        entry = self._entries.get(stripe)
        if entry is None:
            self.metrics.counter("cache_misses").inc()
            return None
        self._entries.move_to_end(stripe)
        self.metrics.counter("cache_hits").inc()
        return entry

    def peek(self, stripe: int) -> Entry | None:
        """Like :meth:`get` but without touching counters or recency --
        for double-checked lookups that already counted their miss."""
        return self._entries.get(stripe)

    def put(self, stripe: int, entry: Entry) -> None:
        """Insert/refresh an entry, evicting the least-recent one."""
        if self.capacity == 0:
            return
        self._entries[stripe] = entry
        self._entries.move_to_end(stripe)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.metrics.counter("cache_evictions").inc()

    def invalidate(self, stripe: int) -> None:
        """Drop one stripe (the write-through half of consistency)."""
        if self._entries.pop(stripe, None) is not None:
            self.metrics.counter("cache_invalidations").inc()

    def clear(self) -> None:
        self._entries.clear()

    def __repr__(self) -> str:
        return f"StripeCache({len(self._entries)}/{self.capacity} stripes)"
