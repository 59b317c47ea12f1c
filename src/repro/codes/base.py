"""Common interface for RAID-6 code implementations.

Every code family (Liberation optimal/original, EVENODD, RDP,
Reed-Solomon) implements :class:`RAID6Code`.  A code is configured with
``k`` data disks (plus P and Q) and an element size; stripes are NumPy
word arrays ``buf[k+2, rows, words]`` as produced by
:meth:`RAID6Code.alloc_stripe`.

XOR-based codes additionally implement the *schedule* API
(:class:`XorScheduleCode`): their encode/decode programs are
:class:`~repro.engine.ops.Schedule` objects, which gives exact XOR
counts for the complexity experiments and a shared compiled execution
path for the throughput experiments.
"""

from __future__ import annotations

import abc
from functools import lru_cache

import numpy as np

from repro.engine import Schedule, StreamingSchedule, compile_kernel, execute_bits
from repro.obs.profile import kernel_attrs, schedule_span
from repro.obs.tracing import active_tracer
from repro.utils.validation import check_element_size, check_erasures
from repro.utils.words import alloc_stripe, element_words

__all__ = ["RAID6Code", "XorScheduleCode"]


class RAID6Code(abc.ABC):
    """A systematic P+Q RAID-6 erasure code over ``k`` data columns."""

    #: short identifier, e.g. ``"liberation-optimal"``
    name: str = "abstract"

    #: extra workspace columns appended to the stripe buffer (EVENODD's
    #: decoder stages its S adjuster in one; disks never store them).
    n_scratch: int = 0

    def __init__(self, k: int, *, element_size: int = 8) -> None:
        self.k = int(k)
        self.element_size = check_element_size(element_size)

    # -- geometry ---------------------------------------------------------

    @property
    @abc.abstractmethod
    def rows(self) -> int:
        """Number of elements per strip (the code's column height ``w``)."""

    @property
    def n_cols(self) -> int:
        """Logical columns: ``k`` data + P + Q (what disks store)."""
        return self.k + 2

    @property
    def total_cols(self) -> int:
        """Stripe-buffer columns: logical plus scratch workspace."""
        return self.n_cols + self.n_scratch

    @property
    def p_col(self) -> int:
        return self.k

    @property
    def q_col(self) -> int:
        return self.k + 1

    @property
    def strip_bytes(self) -> int:
        """Bytes per strip (one disk's share of a stripe)."""
        return self.rows * self.element_size

    @property
    def data_bytes(self) -> int:
        """User payload bytes per stripe."""
        return self.k * self.strip_bytes

    def alloc_stripe(self) -> np.ndarray:
        """A zeroed stripe buffer ``[total_cols, rows, words]``."""
        return alloc_stripe(self.total_cols, self.rows, self.element_size)

    def check_stripe(self, buf: np.ndarray) -> np.ndarray:
        expected = (self.total_cols, self.rows, element_words(self.element_size))
        if buf.shape != expected:
            raise ValueError(f"stripe shape {buf.shape}, expected {expected}")
        return buf

    # -- coding ------------------------------------------------------------

    @abc.abstractmethod
    def encode(self, buf: np.ndarray) -> np.ndarray:
        """Fill the parity columns from the data columns, in place."""

    @abc.abstractmethod
    def decode(self, buf: np.ndarray, erasures) -> np.ndarray:
        """Rebuild up to two erased columns, in place."""

    def update(self, buf: np.ndarray, col: int, row: int, new_element: np.ndarray) -> int:
        """Small-write: replace one data element and patch parity.

        Generic read-modify-write: XOR-based codes override nothing --
        the parity delta of a data element change is code-specific, so
        the default recomputes the affected parity elements by full
        re-encode of a scratch stripe.  Subclasses provide the efficient
        delta path.  Returns the number of parity *elements* rewritten
        (the update-complexity metric).
        """
        self.check_stripe(buf)
        buf[col, row] = new_element
        parity = buf[self.k :].copy()
        self.encode(buf)
        changed = int(
            sum(
                np.any(parity[c - self.k, r] != buf[c, r])
                for c in (self.p_col, self.q_col)
                for r in range(self.rows)
            )
        )
        return changed

    # -- reconfiguration ------------------------------------------------------

    def with_k(self, new_k: int) -> "RAID6Code":
        """A code of the same family/geometry with a different ``k``.

        Used by online array growth: the new instance must keep the
        same strip geometry (``rows`` and ``element_size``) so existing
        strips remain valid.  Subclasses override to preserve their
        structural parameters (``p``); the default raises.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support reconfiguration"
        )

    # -- verification -------------------------------------------------------

    def verify(self, buf: np.ndarray) -> bool:
        """Whether the stripe's parity columns are consistent."""
        self.check_stripe(buf)
        work = buf.copy()
        self.encode(work)
        return bool(np.array_equal(work[: self.n_cols], buf[: self.n_cols]))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(k={self.k}, rows={self.rows}, "
            f"element_size={self.element_size})"
        )


class XorScheduleCode(RAID6Code):
    """A RAID-6 code whose programs are XOR schedules.

    Subclasses implement :meth:`build_encode_schedule` and
    :meth:`build_decode_schedule`; this base class provides word-level
    execution with plan caching (:meth:`plan`), bit-level execution,
    and XOR accounting.

    ``cache_decode_plans`` controls whether decode programs are memoised
    per erasure pattern.  The paper's *original* (Jerasure) baseline
    regenerates its decoding matrix and schedule on every call -- that
    per-call matrix work is part of what the paper measures -- so the
    baseline subclass disables the cache by default while the optimal
    implementation enables it.
    """

    cache_decode_plans: bool = True

    def __init__(self, k: int, *, element_size: int = 8, execution: str = "kernel") -> None:
        super().__init__(k, element_size=element_size)
        if execution not in ("kernel", "streaming"):
            raise ValueError(
                f"execution must be 'kernel' or 'streaming', got {execution!r}"
            )
        #: "kernel" lowers the schedule to levelized bulk-XOR slice
        #: kernels (fastest; see :mod:`repro.engine.kernels`);
        #: "streaming" runs one region op per scheduled op, mirroring
        #: Jerasure's execution model -- use it when measured throughput
        #: should be proportional to schedule op counts, as in the
        #: paper's Figs. 9-13.
        self.execution = execution
        self._encode_plan = None
        self._encode_sched: Schedule | None = None
        self._decode_plans: dict[tuple[int, ...], object] = {}
        #: (n_xors, n_ops) per cached decode plan, so a traced cache hit
        #: can report schedule cost without rebuilding the schedule.
        self._decode_stats: dict[tuple[int, ...], tuple[int, int]] = {}

    def plan(self, erasures: tuple[int, ...] | None = None, sched: Schedule | None = None):
        """The executable plan for encoding (``erasures=None``) or for
        decoding a checked erasure pattern.

        The one owner of the plan-cache policy: the encode plan compiles
        once; a decode plan is memoised per pattern only when
        ``cache_decode_plans`` is set, so the Jerasure baseline pays its
        schedule derivation on every call.  ``sched`` passes a decode
        schedule the caller already built for ``erasures``.  Plans run
        over any trailing shape (one stripe, or a word-packed batch).
        """
        if erasures is None:
            if self._encode_plan is None:
                self._encode_plan = self._compile(self.encode_schedule())
            return self._encode_plan
        plan = self._decode_plans.get(erasures)
        if plan is None:
            if sched is None:
                sched = self.build_decode_schedule(erasures)
            plan = self._compile(sched)
            if self.cache_decode_plans:
                self._decode_plans[erasures] = plan
                self._decode_stats[erasures] = (sched.n_xors, len(sched))
        return plan

    def _compile(self, sched: Schedule):
        if self.execution == "streaming":
            return StreamingSchedule(sched)
        return compile_kernel(sched)

    # -- schedule builders (subclass API) ----------------------------------

    @abc.abstractmethod
    def build_encode_schedule(self) -> Schedule:
        """Construct the encoding schedule (uncached)."""

    @abc.abstractmethod
    def build_decode_schedule(self, erasures: tuple[int, ...]) -> Schedule:
        """Construct the decoding schedule for an erasure pattern."""

    # -- cached accessors ----------------------------------------------------

    def encode_schedule(self) -> Schedule:
        if self._encode_sched is None:
            self._encode_sched = self.build_encode_schedule()
        return self._encode_sched

    def decode_schedule(self, erasures) -> Schedule:
        ers = check_erasures(erasures, self.n_cols)
        return self.build_decode_schedule(ers)

    # -- word-level coding ----------------------------------------------------

    def encode(self, buf: np.ndarray) -> np.ndarray:
        self.check_stripe(buf)
        tracer = active_tracer()
        if tracer is None:  # hot path: one global read, zero allocations
            return self.plan().run(buf)
        sched = self.encode_schedule()
        cache = "hit" if self._encode_plan is not None else "miss"
        with schedule_span(
            tracer, "code.encode", code=self.name, xors=sched.n_xors,
            ops=len(sched), nbytes=int(buf.nbytes), cache=cache,
        ) as span:
            plan = self.plan()
            kernel_attrs(span, plan)
            return plan.run(buf)

    def decode(self, buf: np.ndarray, erasures) -> np.ndarray:
        self.check_stripe(buf)
        ers = check_erasures(erasures, self.n_cols)
        if not ers:
            return buf
        tracer = active_tracer()
        if tracer is None:  # hot path: one global read, zero allocations
            return self.plan(ers).run(buf)
        if ers in self._decode_plans:
            sched = None
            xors, ops = self._decode_stats[ers]
            cache = "hit"
        else:
            sched = self.build_decode_schedule(ers)
            xors, ops = sched.n_xors, len(sched)
            cache = "miss"
        with schedule_span(
            tracer, "code.decode", code=self.name, xors=xors,
            ops=ops, nbytes=int(buf.nbytes), cache=cache,
            erasures=",".join(map(str, ers)),
        ) as span:
            plan = self.plan(ers, sched)
            kernel_attrs(span, plan)
            return plan.run(buf)

    # -- bit-level coding (tests, exact semantics) ------------------------------

    def encode_bits(self, bits: np.ndarray) -> np.ndarray:
        """Encode a single ``(n_cols, rows)`` 0/1 codeword in place."""
        return execute_bits(self.encode_schedule(), bits)

    def decode_bits(self, bits: np.ndarray, erasures) -> np.ndarray:
        ers = check_erasures(erasures, self.n_cols)
        return execute_bits(self.build_decode_schedule(ers), bits)

    # -- accounting --------------------------------------------------------------

    def encoding_xors(self) -> int:
        """Total XORs of the encoding program."""
        return self.encode_schedule().n_xors

    def decoding_xors(self, erasures) -> int:
        """Total XORs of the decoding program for a pattern."""
        ers = check_erasures(erasures, self.n_cols)
        return self.build_decode_schedule(ers).n_xors

    def encoding_complexity(self) -> float:
        """Average XORs per parity *bit* (the paper's encode metric)."""
        return self.encoding_xors() / (2 * self.rows)

    def decoding_complexity(self, erasures) -> float:
        """Average XORs per missing bit for a pattern."""
        ers = check_erasures(erasures, self.n_cols)
        if not ers:
            return 0.0
        return self.decoding_xors(ers) / (len(ers) * self.rows)
