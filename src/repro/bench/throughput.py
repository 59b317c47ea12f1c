"""Timed throughput experiments: Figs. 9-13.

Measurement protocol (mirroring the paper's use of the Jerasure timing
programs):

* codes run in **streaming** execution mode -- one region op per
  scheduled XOR/copy, Jerasure's execution model -- so time is
  proportional to the schedule's operation count;
* the *original* decoder re-derives its decoding matrix and schedule on
  every call (as Jerasure does), while the *optimal* decoder reuses
  per-pattern plans (Algorithms 2-4 are matrix-free index walks);
* throughput = user data bytes per stripe / wall time, best of
  ``repeats`` timing windows of ``inner`` calls each;
* decode throughput is averaged over two-data-column erasure patterns
  (``max_pairs`` caps the pattern count per point to bound runtime).

The same harness also measures the **kernel data plane**
(``execution="kernel"``, optionally ``batch > 1``): schedules lowered
to levelized bulk-XOR slice kernels (:mod:`repro.engine.kernels`),
run over a word-packed multi-stripe buffer
(:func:`repro.parallel.alloc_word_batch`) so each bulk-XOR call covers
the whole batch.  Throughput still counts user data bytes per wall
second -- a batch call processes ``batch`` stripes -- making the
streaming and kernel numbers directly comparable (same geometry, same
bytes, same best-of-window protocol).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.bench.complexity import all_data_pairs
from repro.codes.registry import make_code
from repro.utils.primes import prime_for_k

__all__ = [
    "ThroughputResult",
    "make_bench_code",
    "measure_encode",
    "measure_decode",
    "encode_throughput_series",
    "decode_throughput_series",
    "element_size_series",
]


@dataclass(frozen=True)
class ThroughputResult:
    """One measured point."""

    name: str
    k: int
    p: int
    element_size: int
    gbps: float
    seconds_per_call: float


def make_bench_code(
    name: str, k: int, p: int | None, element_size: int, *, execution: str = "streaming"
):
    """A code instance configured for timing.

    The default stays ``streaming`` (paper-faithful: time proportional
    to op counts); pass ``execution="kernel"`` to measure the native
    bulk-XOR data plane instead.
    """
    return make_code(
        name,
        k,
        p=p if p is not None else prime_for_k(k),
        element_size=element_size,
        execution=execution,
    )


def _filled_stripe(code, seed: int = 0, batch: int = 1) -> np.ndarray:
    """A data-filled, encoded stripe (or word-packed ``batch`` stripes)."""
    rng = np.random.default_rng(seed)
    if batch == 1:
        buf = code.alloc_stripe()
    else:
        from repro.parallel import alloc_word_batch

        buf = alloc_word_batch(code, batch)
    buf[: code.k] = rng.integers(0, 2**64, buf[: code.k].shape, dtype=np.uint64)
    _coder(code)(buf)
    return buf


def _coder(code, erasures: tuple[int, ...] | None = None):
    """A callable running the code's (batch-shape-agnostic) plan.

    ``code.encode``/``code.decode`` insist on exact single-stripe
    shapes; the compiled plans themselves are width-agnostic, so timing
    goes straight at the plan -- which is also what keeps the timed
    region free of per-call shape checks for the streaming baseline.
    """
    if erasures is None or code.cache_decode_plans:
        return code.plan(erasures).run

    def rebuild_and_run(buf):
        # The Jerasure-like baseline pays schedule derivation per call
        # by design (its plan is never cached); keep that cost inside
        # the timed region.
        return code.plan(erasures).run(buf)

    return rebuild_and_run


def _best_window(fn, *, inner: int, repeats: int) -> float:
    """Seconds per call, best-of-``repeats`` windows (noise-robust)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def measure_encode(
    name: str,
    k: int,
    *,
    p: int | None = None,
    element_size: int = 4096,
    inner: int = 10,
    repeats: int = 3,
    execution: str = "streaming",
    batch: int = 1,
) -> ThroughputResult:
    """Encoding throughput of one configuration.

    ``batch > 1`` times one plan call over a word-packed multi-stripe
    buffer and counts every stripe's data bytes: the kernel data
    plane's operating point.
    """
    code = make_bench_code(name, k, p, element_size, execution=execution)
    buf = _filled_stripe(code, batch=batch)
    run = _coder(code)
    run(buf)  # warm plans and the bound-program cache
    sec = _best_window(lambda: run(buf), inner=inner, repeats=repeats)
    return ThroughputResult(
        name, k, code.p, element_size, batch * code.data_bytes / sec / 1e9, sec
    )


def measure_decode(
    name: str,
    k: int,
    *,
    p: int | None = None,
    element_size: int = 4096,
    max_pairs: int = 6,
    inner: int = 3,
    repeats: int = 3,
    execution: str = "streaming",
    batch: int = 1,
) -> ThroughputResult:
    """Decoding throughput averaged over two-data-column patterns.

    Each timed call decodes one erasure pattern in place (the buffer
    contents stay consistent: decoding a consistent stripe is a no-op
    value-wise but performs all the work, exactly like Jerasure's
    timing tools).  ``batch > 1`` decodes the same pattern across a
    word-packed multi-stripe buffer per call -- the bulk-rebuild shape.
    """
    code = make_bench_code(name, k, p, element_size, execution=execution)
    buf = _filled_stripe(code, batch=batch)
    pairs = all_data_pairs(k)
    if len(pairs) > max_pairs:
        stride = len(pairs) / max_pairs
        pairs = [pairs[int(i * stride)] for i in range(max_pairs)]
    per_pair = []
    for pair in pairs:
        run = _coder(code, tuple(pair))
        run(buf)  # warm (rebuilds per call for the uncached original)
        sec = _best_window(lambda: run(buf), inner=inner, repeats=repeats)
        per_pair.append(sec)
    sec = float(np.mean(per_pair))
    return ThroughputResult(
        name, k, code.p, element_size, batch * code.data_bytes / sec / 1e9, sec
    )


def encode_throughput_series(
    k_values: Sequence[int],
    *,
    p: int | None = None,
    element_size: int = 4096,
    names: Sequence[str] = ("liberation-original", "liberation-optimal"),
    inner: int = 10,
    repeats: int = 3,
) -> list[dict]:
    """Fig. 10 (``p=None``) / Fig. 11 (fixed ``p``) data rows.

    The compared algorithms' timing windows are *interleaved*
    (A, B, A, B, ...) and each takes its best window, so slow drifts in
    background load hit both alike -- without this, a few-percent
    algorithmic difference is unmeasurable on a shared machine.
    """
    rows = []
    for k in k_values:
        codes = []
        for name in names:
            code = make_bench_code(name, k, p, element_size)
            buf = _filled_stripe(code)
            code.encode(buf)  # warm plans
            codes.append((name, code, buf))
        best = {name: float("inf") for name in names}
        for _ in range(repeats):
            for name, code, buf in codes:
                t0 = time.perf_counter()
                for _ in range(inner):
                    code.encode(buf)
                best[name] = min(best[name], (time.perf_counter() - t0) / inner)
        row: dict = {"k": k}
        for name, code, _buf in codes:
            row[name] = code.data_bytes / best[name] / 1e9
        rows.append(row)
    return rows


def decode_throughput_series(
    k_values: Sequence[int],
    *,
    p: int | None = None,
    element_size: int = 4096,
    names: Sequence[str] = ("liberation-original", "liberation-optimal"),
    max_pairs: int = 6,
    inner: int = 3,
    repeats: int = 3,
) -> list[dict]:
    """Fig. 12 (``p=None``) / Fig. 13 (fixed ``p``) data rows."""
    rows = []
    for k in k_values:
        row: dict = {"k": k}
        for name in names:
            res = measure_decode(
                name,
                k,
                p=p,
                element_size=element_size,
                max_pairs=max_pairs,
                inner=inner,
                repeats=repeats,
            )
            row[name] = res.gbps
        rows.append(row)
    return rows


def element_size_series(
    p_values: Sequence[int] = (5, 7, 11),
    *,
    log2_sizes: Sequence[int] = (12, 13, 14, 15, 16),
    names: Sequence[str] = ("liberation-original", "liberation-optimal"),
    inner: int = 10,
    repeats: int = 3,
) -> dict[int, list[dict]]:
    """Fig. 9 data: encoding throughput vs element size, ``k = p``.

    Returns ``{p: [{"log2_elem": e, "<name>": gbps, ...}, ...]}``.
    """
    out: dict[int, list[dict]] = {}
    for p in p_values:
        rows = []
        for e in log2_sizes:
            row: dict = {"log2_elem": e}
            for name in names:
                res = measure_encode(
                    name, p, p=p, element_size=2**e, inner=inner, repeats=repeats
                )
                row[name] = res.gbps
            rows.append(row)
        out[p] = rows
    return out
