"""Engine profiling hooks: per-schedule spans with XOR accounting.

The paper's contribution is a constant-factor XOR-count/throughput win;
these helpers make that visible at runtime.  Schedule executions
(``XorScheduleCode.encode``/``decode``) and kernel compilations
(``repro.engine.kernels.compile_kernel``) emit spans carrying:

* ``xors`` -- the schedule's XOR count (a property of the schedule,
  audited by ``repro analyze``; execution strategy can never change it);
* ``ops`` -- total scheduled operations (XORs + free copies);
* ``bytes`` -- stripe bytes the run touched;
* ``cache`` -- plan-cache outcome (``"hit"``/``"miss"``) for the
  compiled-plan caches;
* ``kernel_*`` -- lowering shape when the run used a levelized
  bulk-XOR kernel plan (:mod:`repro.engine.kernels`): ``kernel_levels``,
  ``kernel_bulk_calls``, ``kernel_ops``, ``kernel_max_width`` (widest
  single bulk XOR, in source slices), ``kernel_cell_xors`` (always equal
  to ``xors`` -- lowering conserves XOR work by construction);
* ``mxors_per_s`` / ``gbps`` -- effective XOR throughput and byte
  throughput, derived from the span's measured duration at close (only
  when a real clock is injected; the logical-tick fallback yields
  durations that are ordering, not time).

So ``repro trace`` on an encode shows *exactly* where
``liberation-optimal`` beats the bit-matrix baseline: same span names,
same byte counts, different ``xors`` and duration.

Everything here is a thin veneer over :mod:`repro.obs.tracing`; the
disabled path (no active tracer) never reaches this module.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator

from repro.obs.tracing import Span, Tracer

__all__ = ["schedule_span", "finalize_rates", "kernel_attrs"]


def kernel_attrs(span: Span, plan: object) -> None:
    """Stamp a schedule span with the kernel plan's lowering shape.

    Duck-typed on ``plan.stats()`` so the call site stays executor-
    agnostic: streaming plans have no ``stats`` and produce no
    attributes.  ``kernel_ops`` replaces the stats key ``kernel_ops``
    verbatim; the others gain the ``kernel_`` prefix, keeping the plain
    ``xors``/``ops`` names reserved for schedule-level accounting.
    """
    stats = getattr(plan, "stats", None)
    if stats is None:
        return
    for name, value in stats().items():
        key = name if name.startswith("kernel_") else f"kernel_{name}"
        span.set(key, value)


def finalize_rates(span: Span) -> None:
    """Derive throughput attributes from a closed span's duration.

    No-op when the duration is zero/unknown (logical clocks, virtual
    time that did not advance): rates from fake time would be noise.
    """
    d = span.duration
    if not d or d <= 0:
        return
    xors = span.attrs.get("xors")
    nbytes = span.attrs.get("bytes")
    if isinstance(xors, int) and xors > 0:
        span.set("mxors_per_s", round(xors / d / 1e6, 3))
    if isinstance(nbytes, int) and nbytes > 0:
        span.set("gbps", round(nbytes / d / 1e9, 4))


@contextlib.contextmanager
def schedule_span(
    tracer: Tracer,
    kind: str,
    *,
    code: str,
    xors: int,
    ops: int,
    nbytes: int,
    cache: str | None = None,
    **extra: int | float | str | bool | None,
) -> Iterator[Span]:
    """Span around one schedule execution (``kind``: encode/decode/...).

    Callers are expected to have checked ``active_tracer()`` already;
    the hot-path guard lives at the call site so the disabled path
    never imports or allocates anything here.
    """
    attrs: dict[str, int | float | str | bool | None] = {
        "code": code,
        "xors": xors,
        "ops": ops,
        "bytes": nbytes,
        **extra,
    }
    if cache is not None:
        attrs["cache"] = cache
    with tracer.span(kind, **attrs) as s:
        yield s
    finalize_rates(s)
