"""Process-wide metrics: counters, gauges, mergeable log2 histograms.

The project-wide metrics layer, behind the cluster's ``stats`` verb
and every node, client and gateway counter:

* plain-int :class:`Counter` and :class:`Gauge` (safe under asyncio's
  cooperative scheduling -- no threads, no locks);
* :class:`Histogram` buckets observations on a fixed log2 grid, so
  snapshots are bounded *and mergeable*: summing two histograms'
  buckets elementwise yields exactly the histogram of the combined
  observation stream, at the grid's resolution;
* :class:`MetricsRegistry` is a named bag of the above with
  JSON-serialisable snapshots, cross-node merging, table rendering and
  a Prometheus text-exposition formatter
  (:func:`to_prometheus`, served by cluster nodes via the ``metrics``
  verb).

A process-default registry (:func:`default_registry`) exists for
library-level instrumentation that has no obvious owner object; the
cluster node and client keep per-instance registries as before.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "quantiles_from_buckets",
    "set_default_registry",
    "to_prometheus",
]


def quantiles_from_buckets(
    base: float, counts: Iterable[int], qs: Iterable[float]
) -> list[float]:
    """Interpolated quantile estimates from a log2 bucket vector.

    :meth:`Histogram.quantile` answers with the containing bucket's
    *upper edge* -- a deliberate <=2x overestimate that is ideal for
    alarm thresholds but too coarse for a latency report where p50 and
    p99 may share a bucket.  This estimator instead interpolates
    linearly *within* the containing bucket (bucket ``i >= 1`` spans
    ``(base * 2**(i-1), base * 2**i]``; bucket 0 spans ``[0, base]``),
    assuming observations are uniform inside a bucket.  The estimate is
    therefore always inside the containing bucket -- error bounded by
    one bucket width -- and monotone in ``q``.

    Returns one estimate per requested quantile, in request order; an
    empty histogram estimates 0.0 everywhere.  This is the estimator
    behind the workload driver's p50/p90/p99 latency report.
    """
    counts = list(counts)
    total = sum(counts)
    out: list[float] = []
    for q in qs:
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if total == 0:
            out.append(0.0)
            continue
        rank = max(1, math.ceil(q * total))
        seen = 0
        for i, c in enumerate(counts):
            if c and seen + c >= rank:
                lo = 0.0 if i == 0 else base * (2 ** (i - 1))
                hi = base * (2**i)
                frac = (rank - seen) / c
                out.append(lo + frac * (hi - lo))
                break
            seen += c
        else:  # pragma: no cover - rank <= total guarantees a bucket
            out.append(base * (2 ** (len(counts) - 1)))
    return out


class Counter:
    """A monotonically increasing event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n


class Gauge:
    """A value that goes up and down (queue depth, live nodes, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.value -= n


class Histogram:
    """Log2-bucketed distribution (for request latencies, sizes...).

    Bucket ``i >= 1`` counts observations in ``(base * 2**(i-1),
    base * 2**i]``; bucket 0 holds everything ``<= base``, including
    exactly 0.  Quantiles read back the *upper edge* of the containing
    bucket (a <=2x overestimate, plenty for spotting a slow node) --
    so with only zeros observed, every quantile reports ``base``, never
    0: bucket 0's upper edge is ``base * 2**0 == base``, and "<= base"
    is the honest resolution statement the grid can make.

    Bucket counts are mergeable by construction: elementwise sums over
    equal ``base`` grids are exact (see :meth:`MetricsRegistry.merge`).
    """

    __slots__ = ("name", "base", "counts", "total", "sum")

    N_BUCKETS = 32

    def __init__(self, name: str, *, base: float = 1e-4) -> None:
        self.name = name
        self.base = float(base)
        self.counts = [0] * self.N_BUCKETS
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError("histogram observations must be >= 0")
        idx = 0 if value <= self.base else int(math.log2(value / self.base)) + 1
        self.counts[min(idx, self.N_BUCKETS - 1)] += 1
        self.total += 1
        self.sum += value

    def quantile(self, q: float) -> float:
        """Upper bucket edge containing the ``q``-quantile (0 if empty).

        Note the bucket-0 edge case documented on the class: a
        distribution of exact zeros reports ``base`` (the bucket's
        upper edge), not 0.
        """
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.total == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.total))
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                return self.base * (2**i)
        return self.base * (2 ** (self.N_BUCKETS - 1))

    def quantiles(self, qs: Iterable[float]) -> list[float]:
        """Interpolated estimates (see :func:`quantiles_from_buckets`).

        Unlike :meth:`quantile` this does not round up to the bucket
        edge, so p50/p90/p99 stay distinguishable inside one bucket --
        what latency reports want.  :meth:`quantile` (and the snapshot
        fields built on it) keep the conservative upper-edge semantics.
        """
        return quantiles_from_buckets(self.base, self.counts, qs)

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def snapshot(self) -> dict:
        """JSON view; ``base``/``buckets`` let exporters render the
        full distribution and make snapshots mergeable downstream."""
        return {
            "count": self.total,
            "sum": self.sum,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "base": self.base,
            "buckets": list(self.counts),
        }

    @staticmethod
    def stats_from_buckets(base: float, counts: list[int], total: int, sum_: float) -> dict:
        """Derived stats of a (possibly merged) bucket vector -- the
        same shape :meth:`snapshot` produces."""

        def q(frac: float) -> float:
            if total == 0:
                return 0.0
            rank = max(1, math.ceil(frac * total))
            seen = 0
            for i, c in enumerate(counts):
                seen += c
                if seen >= rank:
                    return base * (2**i)
            return base * (2 ** (len(counts) - 1))

        return {
            "count": total,
            "sum": sum_,
            "mean": sum_ / total if total else 0.0,
            "p50": q(0.50),
            "p95": q(0.95),
            "p99": q(0.99),
            "base": base,
            "buckets": list(counts),
        }


class MetricsRegistry:
    """A named bag of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            c = self._counters[name] = Counter(name)
            return c

    def gauge(self, name: str) -> Gauge:
        try:
            return self._gauges[name]
        except KeyError:
            g = self._gauges[name] = Gauge(name)
            return g

    def histogram(self, name: str, *, base: float = 1e-4) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            h = self._histograms[name] = Histogram(name, base=base)
            return h

    def get(self, name: str) -> int:
        """Current value of a counter (0 if never touched)."""
        c = self._counters.get(name)
        return c.value if c is not None else 0

    def snapshot(self) -> dict:
        """JSON-serialisable view: counters / gauges / histograms.

        The ``gauges`` key is omitted when empty, keeping the wire
        shape of pre-``repro.obs`` nodes byte-compatible.
        """
        snap: dict = {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "histograms": {
                n: h.snapshot() for n, h in sorted(self._histograms.items())
            },
        }
        if self._gauges:
            snap["gauges"] = {n: g.value for n, g in sorted(self._gauges.items())}
        return snap

    @staticmethod
    def rows(snapshot: dict, *, prefix: str = "") -> list[dict]:
        """Flatten a snapshot into table rows for ``format_table``."""
        out: list[dict] = []
        for name, value in snapshot.get("counters", {}).items():
            out.append({"metric": prefix + name, "value": value})
        for name, value in snapshot.get("gauges", {}).items():
            out.append({"metric": prefix + name, "value": value})
        for name, h in snapshot.get("histograms", {}).items():
            out.append(
                {
                    "metric": f"{prefix}{name} (n={h['count']})",
                    "value": f"mean={h['mean']:.4g} p95={h['p95']:.4g}",
                }
            )
        return out

    @staticmethod
    def merge(snapshots: Iterable[dict]) -> dict:
        """Merge snapshots: counters and gauges sum; histogram buckets
        sum elementwise (exact at grid resolution by construction).

        Quantiles of the merged histogram are recomputed from the
        merged buckets -- as accurate as any single node's -- but the
        snapshot keeps the cross-node caveat: merged quantiles describe
        the *union* stream and say nothing about per-node tails, so a
        single slow node can hide inside a healthy-looking merged p99
        (read per-node snapshots to localise).  Histograms from
        pre-``buckets`` snapshots (no mergeable state) are skipped.
        Mixing grids (different ``base``) for the same name raises.
        """
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        hists: dict[str, dict] = {}
        for snap in snapshots:
            for name, value in snap.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
            for name, value in snap.get("gauges", {}).items():
                gauges[name] = gauges.get(name, 0.0) + value
            for name, h in snap.get("histograms", {}).items():
                if "buckets" not in h:
                    continue  # legacy snapshot: nothing mergeable
                acc = hists.get(name)
                if acc is None:
                    hists[name] = {
                        "base": h["base"],
                        "counts": list(h["buckets"]),
                        "total": h["count"],
                        "sum": h["sum"],
                    }
                    continue
                if acc["base"] != h["base"] or len(acc["counts"]) != len(h["buckets"]):
                    raise ValueError(
                        f"histogram {name!r}: cannot merge differing log2 grids"
                    )
                acc["counts"] = [a + b for a, b in zip(acc["counts"], h["buckets"])]
                acc["total"] += h["count"]
                acc["sum"] += h["sum"]
        merged_hists = {
            name: {
                **Histogram.stats_from_buckets(
                    acc["base"], acc["counts"], acc["total"], acc["sum"]
                ),
                "caveat": "merged across nodes: bucket-exact, but per-node tails are not visible",
            }
            for name, acc in sorted(hists.items())
        }
        out: dict = {
            "counters": dict(sorted(counters.items())),
            "histograms": merged_hists,
        }
        if gauges:
            out["gauges"] = dict(sorted(gauges.items()))
        return out


# -- process-default registry -------------------------------------------------

_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry for instrumentation with no owner."""
    return _DEFAULT


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-default registry (tests); returns the old one."""
    global _DEFAULT
    previous, _DEFAULT = _DEFAULT, registry
    return previous


# -- Prometheus text exposition ----------------------------------------------


def _prom_name(name: str) -> str:
    """Sanitize to the Prometheus metric-name alphabet."""
    out = "".join(ch if ch.isalnum() or ch in "_:" else "_" for ch in name)
    return out if not out[:1].isdigit() else f"_{out}"


def _prom_labels(labels: dict[str, str] | None, extra: dict[str, str] | None = None) -> str:
    merged = {**(labels or {}), **(extra or {})}
    if not merged:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in sorted(merged.items()))
    return "{" + body + "}"


def _prom_num(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    return format(value, ".10g")


def to_prometheus(
    snapshot: dict,
    *,
    prefix: str = "repro_",
    labels: dict[str, str] | None = None,
) -> str:
    """Render a registry snapshot in Prometheus text exposition format.

    Counters gain the conventional ``_total`` suffix; histograms render
    as cumulative ``_bucket{le=...}`` series over the log2 grid's upper
    edges plus ``_sum``/``_count``.  ``labels`` (e.g.
    ``{"column": "3"}``) are attached to every sample, which is how the
    cluster's per-node endpoints stay aggregatable.
    """
    lines: list[str] = []
    for name, value in snapshot.get("counters", {}).items():
        metric = _prom_name(f"{prefix}{name}_total")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}{_prom_labels(labels)} {value}")
    for name, value in snapshot.get("gauges", {}).items():
        metric = _prom_name(f"{prefix}{name}")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric}{_prom_labels(labels)} {_prom_num(value)}")
    for name, h in snapshot.get("histograms", {}).items():
        metric = _prom_name(f"{prefix}{name}")
        lines.append(f"# TYPE {metric} histogram")
        buckets = h.get("buckets")
        if buckets is not None:
            base = h["base"]
            cum = 0
            last = max(
                (i for i, c in enumerate(buckets) if c), default=-1
            )
            for i in range(last + 1):
                cum += buckets[i]
                le = _prom_num(base * (2**i))
                lines.append(
                    f"{metric}_bucket{_prom_labels(labels, {'le': le})} {cum}"
                )
        lines.append(
            f"{metric}_bucket{_prom_labels(labels, {'le': '+Inf'})} {h['count']}"
        )
        lines.append(f"{metric}_sum{_prom_labels(labels)} {_prom_num(h['sum'])}")
        lines.append(f"{metric}_count{_prom_labels(labels)} {h['count']}")
    return "\n".join(lines) + ("\n" if lines else "")
