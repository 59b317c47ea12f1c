"""Deterministic stripe -> erasure-set placement over an elastic node pool.

The elastic cluster replaces the fixed "column *c* lives on node *c*"
wiring with a placement function: given a stripe index and the set of
placement-eligible (LIVE) nodes, return the ordered tuple of node ids
holding columns ``0..n_cols-1`` of that stripe.  Two properties matter:

* **Determinism without coordination** -- every client and every node
  computes the same answer from the same membership epoch, so there is
  no placement service to fail.  Scores come from BLAKE2b over
  ``stripe/column/node_id`` (``hashlib``, not Python's salted
  ``hash()``), so the answer is stable across processes and runs.
* **Minimal movement** -- rendezvous (highest-random-weight) hashing:
  each column independently picks the highest-scoring node, excluding
  nodes already chosen for earlier columns of the same stripe.  Adding
  or removing one node only moves the strips that node wins or held;
  everything else keeps its holder.  The exclusion scan runs column by
  column so a departure can only cascade through the handful of
  columns whose winner chain it touches, not reshuffle the stripe.

The per-column exclusion is what makes this CRUSH-like rather than a
plain consistent-hash ring: a stripe's ``n_cols`` strips always land on
``n_cols`` *distinct* nodes, preserving the RAID-6 failure-domain
guarantee (losing one node loses at most one column of any stripe).

:class:`PlacementMap` binds the function to a
:class:`~repro.cluster.membership.MembershipTable` and caches per
stripe, keyed by the eligible pool, so steady-state lookups are a dict
hit and every epoch bump naturally invalidates only what changed.

:class:`ColumnOrder` is the other placement a
:class:`~repro.cluster.client.ClusterArray` knows: the static table of
an array built from ``k + 2`` addresses, column *c* of every stripe on
node *c*.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

__all__ = [
    "PlacementError",
    "placement_score",
    "place_stripe",
    "PlacementMap",
    "ColumnOrder",
    "movement_fraction",
]


class PlacementError(Exception):
    """Placement is impossible (fewer eligible nodes than columns)."""


def placement_score(stripe: int, column: int, node_id: str) -> int:
    """Rendezvous weight of ``node_id`` for one strip; 64-bit, stable."""
    key = f"{stripe}/{column}/{node_id}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def place_stripe(stripe: int, pool: Iterable[str], n_cols: int) -> tuple[str, ...]:
    """Place one stripe's columns on ``n_cols`` distinct nodes from ``pool``.

    Raises :class:`PlacementError` when the pool is too small; ties
    (astronomically unlikely with 64-bit scores) break on node id so
    the result is a pure function of its inputs.
    """
    nodes = sorted(set(pool))
    if len(nodes) < n_cols:
        raise PlacementError(
            f"stripe {stripe}: need {n_cols} nodes, pool has {len(nodes)}"
        )
    chosen: list[str] = []
    taken: set[str] = set()
    for column in range(n_cols):
        best = max(
            (node for node in nodes if node not in taken),
            key=lambda node: (placement_score(stripe, column, node), node),
        )
        chosen.append(best)
        taken.add(best)
    return tuple(chosen)


class PlacementMap:
    """Epoch-aware placement cache over a membership table.

    ``membership`` only needs a ``placement_pool() -> tuple[str, ...]``
    method (sorted LIVE node ids) and an ``epoch`` attribute; the cache
    entry for a stripe is revalidated against the pool tuple, so a bump
    that does not change the eligible set (e.g. a drain finishing into
    LEFT after the pool already shrank) costs nothing.
    """

    def __init__(self, membership, n_cols: int) -> None:
        self.membership = membership
        self.n_cols = int(n_cols)
        self._cache: dict[int, tuple[tuple[str, ...], tuple[str, ...]]] = {}

    def nodes_for(self, stripe: int) -> tuple[str, ...]:
        """Node ids holding columns ``0..n_cols-1`` of ``stripe``."""
        pool = self.membership.placement_pool()
        hit = self._cache.get(stripe)
        if hit is not None and hit[0] == pool:
            return hit[1]
        placed = place_stripe(stripe, pool, self.n_cols)
        self._cache[stripe] = (pool, placed)
        return placed

    def node_for(self, stripe: int, column: int) -> str:
        return self.nodes_for(stripe)[column]


class ColumnOrder:
    """Column *c* of every stripe on ``ids[c]``.

    A column whose node has left the placement pool (drained, dead)
    moves to the lowest LIVE id outside ``ids`` -- a node joined as a
    spare -- when there is one, and otherwise stays put: the stripe is
    then degraded, never unplaceable.  So every stripe stays in column
    order (one node per column), and a join followed by a drain moves
    one column wholesale.
    """

    def __init__(self, membership, ids) -> None:
        self.membership = membership
        self.ids = tuple(ids)
        #: (pool, placement) of the last call: every stripe shares it
        self._last: tuple = (None, self.ids)

    def nodes_for(self, stripe: int) -> tuple:
        pool = self.membership.placement_pool()
        if pool != self._last[0]:
            spares = iter(n for n in pool if n not in self.ids)
            self._last = (
                pool, tuple(i if i in pool else next(spares, i) for i in self.ids)
            )
        return self._last[1]


def movement_fraction(
    before: Sequence[Sequence[str]], after: Sequence[Sequence[str]]
) -> float:
    """Fraction of strips whose holder changed between two placements.

    Diagnostic used by tests and the rebalancer's planning pass to
    check the minimal-movement property empirically.
    """
    moved = total = 0
    for old, new in zip(before, after):
        for a, b in zip(old, new):
            total += 1
            if a != b:
                moved += 1
    return moved / total if total else 0.0
