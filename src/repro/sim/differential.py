"""Differential fuzzing: many oracles, one source of truth.

The paper's central claim is *exact equivalence under optimality*: the
Algorithm 1-4 schedules must produce byte-identical codewords to the
original bit-matrix Liberation path at strictly lower XOR cost.  That
makes cross-implementation comparison the cheapest possible oracle --
no hand-written expected values, just "these independently derived
paths must agree on every byte".  A :class:`StripeCase` drives one
random stripe through every pair:

* **code vs. code** -- :class:`~repro.codes.liberation.LiberationOptimal`
  (Algorithms 1-4) against :class:`~repro.codes.liberation.LiberationOriginal`
  (bit-matrix dumb/smart scheduling), encode and decode;
* **executor vs. executor** -- the same schedule run through
  :func:`~repro.engine.executor.execute_bits` (bit-plane reference),
  the op-at-a-time :class:`~repro.engine.executor.StreamingSchedule`
  (word-level reference), and the levelized bulk-XOR
  :class:`~repro.engine.kernels.KernelPlan` -- both on a single stripe
  and bound wide over a word-packed two-stripe batch (the kernel data
  plane's layout);
* **round-trip** -- encode, erase any <= 2 columns, decode, compare to
  the original.

:func:`fuzz` interleaves stripe cases with whole-cluster scenarios
(:mod:`repro.sim.scenario`, which adds the ClusterArray-vs-model
oracles), fails on the first divergence, greedily shrinks the failing
case (:mod:`repro.sim.shrink`) and writes a replayable JSON repro.

``code_factory`` is injected everywhere so the harness can test
*itself*: plant a code with one flipped XOR and the fuzzer must catch
and shrink it (see ``tests/sim/test_differential.py``).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.concurrency import sanitizer
from repro.analysis.concurrency.sanitizer import AliasViolationError
from repro.codes import make_code
from repro.engine.executor import StreamingSchedule, execute_bits
from repro.engine.kernels import compile_kernel
from repro.sim.scenario import (
    DivergenceError,
    SimScenario,
    generate_scenario,
    run_scenario,
)

__all__ = [
    "DivergenceError",
    "StripeCase",
    "FuzzFailure",
    "run_stripe_case",
    "run_case_dict",
    "fuzz",
    "replay_file",
]

#: Primes the stripe fuzzer samples (the ISSUE's p menu).
STRIPE_PRIMES = (5, 7, 11, 13)


@dataclass
class StripeCase:
    """One randomized stripe pushed through every oracle pair."""

    seed: int
    p: int
    k: int
    element_size: int = 8
    erasures: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "kind": "stripe",
            "seed": self.seed,
            "p": self.p,
            "k": self.k,
            "element_size": self.element_size,
            "erasures": list(self.erasures),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StripeCase":
        if d.get("kind") != "stripe":
            raise ValueError(f"not a stripe record: kind={d.get('kind')!r}")
        return cls(
            seed=int(d["seed"]),
            p=int(d["p"]),
            k=int(d["k"]),
            element_size=int(d["element_size"]),
            erasures=list(d["erasures"]),
        )

    @classmethod
    def generate(cls, seed: int) -> "StripeCase":
        rng = random.Random(seed)
        p = rng.choice(STRIPE_PRIMES)
        k = rng.randint(2, p)
        element_size = rng.choice((8, 16, 32))
        n_ers = rng.randint(0, 2)
        erasures = sorted(rng.sample(range(k + 2), n_ers))
        return cls(seed=seed, p=p, k=k, element_size=element_size, erasures=erasures)


def _diverge(what: str, case: StripeCase, a: np.ndarray, b: np.ndarray) -> None:
    bad = np.argwhere(a != b)
    first = tuple(int(x) for x in bad[0]) if bad.size else ()
    raise DivergenceError(
        f"{what} diverges at cell {first} for {case.to_dict()}",
        context={"oracle": what, "cell": first, "case": case.to_dict()},
    )


def _check_executors(sched, buf_ref: np.ndarray, what: str, case: StripeCase) -> None:
    """All execution strategies must transform identical inputs identically.

    ``buf_ref`` is the *input* stripe; the op-at-a-time streaming
    executor is the word-level reference, and the bulk-XOR kernel plan
    (single-stripe and word-packed wide) and the bit-level reference on
    each of two probe bit-planes must match it.

    The kernel compiles with ``validate=True``, so its lowering is also
    *symbolically* proved equivalent to the source schedule -- a
    lowering bug is caught even on inputs whose values happen to mask
    it.
    """
    streaming = StreamingSchedule(sched).run(buf_ref.copy())
    kplan = compile_kernel(sched, validate=True)
    kernel = kplan.run(buf_ref.copy())
    if not np.array_equal(streaming, kernel):
        _diverge(f"{what}: streaming-vs-kernel executor", case, streaming, kernel)
    # Kernel wide path: the same plan bound over a word-packed
    # two-stripe batch (stripe i at words [i*w, (i+1)*w)) must leave
    # the single-stripe result in both halves.
    words = buf_ref.shape[2]
    wide = kplan.run(np.concatenate([buf_ref, buf_ref], axis=2))
    for lo in (0, words):
        if not np.array_equal(streaming, wide[:, :, lo:lo + words]):
            _diverge(f"{what}: kernel wide path (stripe at word {lo})",
                     case, streaming, wide[:, :, lo:lo + words])
    # Bit-plane probe: a schedule is GF(2)-linear, so running the bit
    # reference on any single bit plane must equal that plane of the
    # word execution.  Plane 0 and the top plane bracket the word.
    for plane in (0, 63):
        bits = ((buf_ref[:, :, 0] >> np.uint64(plane)) & np.uint64(1)).astype(np.uint8)
        execute_bits(sched, bits)
        word_plane = ((streaming[:, :, 0] >> np.uint64(plane)) & np.uint64(1)).astype(np.uint8)
        if not np.array_equal(bits, word_plane):
            _diverge(f"{what}: bit-plane {plane} vs word executor", case, bits, word_plane)


def run_stripe_case(case: StripeCase, *, code_factory=make_code) -> None:
    """Run every stripe-level oracle; raises :class:`DivergenceError`."""
    kwargs = {"p": case.p, "element_size": case.element_size}
    opt = code_factory("liberation-optimal", case.k, **kwargs)
    orig = code_factory("liberation-original", case.k, **kwargs)

    rng = np.random.default_rng(case.seed)
    data = rng.integers(0, 2**64, (case.k, opt.rows, opt.element_size // 8),
                        dtype=np.uint64)

    buf_opt = opt.alloc_stripe()
    buf_orig = orig.alloc_stripe()
    buf_opt[: case.k] = data
    buf_orig[: case.k] = data

    # Oracle 1: optimal encode == bit-matrix encode, byte for byte.
    opt.encode(buf_opt)
    orig.encode(buf_orig)
    if not np.array_equal(buf_opt[: opt.n_cols], buf_orig[: orig.n_cols]):
        _diverge("encode: optimal vs bit-matrix", case,
                 buf_opt[: opt.n_cols], buf_orig[: orig.n_cols])

    # Oracle 2: every executor agrees on the encode schedule.
    probe = opt.alloc_stripe()
    probe[: case.k] = data
    _check_executors(opt.encode_schedule(), probe, "encode", case)

    if case.erasures:
        ers = list(case.erasures)
        ref = buf_opt.copy()
        garbage = rng.integers(0, 2**64, buf_opt[0].shape, dtype=np.uint64)

        # Oracle 3: both decode paths reconstruct the reference exactly.
        for code, buf in ((opt, buf_opt), (orig, buf_orig)):
            for c in ers:
                buf[c] = garbage
            code.decode(buf, ers)
            if not np.array_equal(buf[: code.n_cols], ref[: code.n_cols]):
                _diverge(f"decode round-trip ({code.name})", case,
                         buf[: code.n_cols], ref[: code.n_cols])

        # Oracle 4: every executor agrees on the optimal decode schedule.
        probe = ref.copy()
        for c in ers:
            probe[c] = 0
        _check_executors(opt.build_decode_schedule(tuple(ers)), probe,
                         "decode", case)


# -- the fuzz loop ------------------------------------------------------------


@dataclass
class FuzzFailure:
    """What the fuzzer hands back when an oracle pair disagrees."""

    case: dict  # the original failing case record
    shrunk: dict  # the minimised case record (== case if shrinking off)
    error: str  # stringified first divergence
    context: dict  # DivergenceError.context of the original failure
    seed: int  # seed that produced the case
    cases_run: int  # how many cases ran before the hit

    def save(self, path) -> None:
        record = dict(self.shrunk)
        record["original"] = self.case
        record["error"] = self.error
        with open(path, "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")


def run_case_dict(case: dict, *, code_factory=make_code) -> None:
    """Replay any repro record (stripe or scenario); raises on failure."""
    kind = case.get("kind")
    if kind == "stripe":
        run_stripe_case(StripeCase.from_dict(case), code_factory=code_factory)
    elif kind == "scenario":
        run_scenario(SimScenario.from_dict(case), code_factory=code_factory)
    else:
        raise ValueError(f"unknown repro kind {kind!r}")


def fuzz(
    seed: int = 0,
    *,
    max_cases: int | None = None,
    time_budget: float | None = None,
    code_factory=make_code,
    shrink: bool = True,
    scenarios: bool = True,
    chaos: bool = False,
    objects: bool = False,
    membership: bool = False,
    on_progress=None,
) -> FuzzFailure | None:
    """Drive cases until a divergence, a case budget, or a time budget.

    Case ``i`` derives everything from ``seed + i``; stripe cases and
    cluster scenarios alternate (scenario every 4th case -- they cost
    more).  ``chaos`` generates scenarios with the self-healing
    vocabulary (silent corruption, scrub, heal, late duplicates on a
    slow parity node) and their convergence epilogue; ``objects``
    routes the data plane through the object gateway
    (puts/gets/updates/deletes with their own shadow oracle),
    composable with ``chaos``.  ``membership``
    makes every *other* scenario slot an elastic churn campaign
    (joins, heartbeat-verdict leaves, drains, epoch bumps over an
    elastic node pool, with the convergence epilogue proving zero
    misplaced stripes and full redundancy).  Returns ``None`` if every
    oracle stayed in agreement, else a :class:`FuzzFailure` whose
    ``shrunk`` record is minimal under the greedy reductions of
    :mod:`repro.sim.shrink`.
    """
    if max_cases is None and time_budget is None:
        max_cases = 100
    deadline = None if time_budget is None else time.monotonic() + time_budget
    i = 0
    while (max_cases is None or i < max_cases) and (
        deadline is None or time.monotonic() < deadline
    ):
        case_seed = seed + i
        if scenarios and i % 4 == 3:
            if membership and (i // 4) % 2 == 1:
                record = generate_scenario(case_seed, elastic=True).to_dict()
            else:
                record = generate_scenario(
                    case_seed, chaos=chaos, objects=objects
                ).to_dict()
        else:
            record = StripeCase.generate(case_seed).to_dict()
        try:
            run_case_dict(record, code_factory=code_factory)
            # Runtime cross-check of the static analyzer: any
            # write-after-handoff the alias sanitizer observed during
            # this case is a finding the dataflow passes missed, and it
            # fails the run with the case attached as the repro.
            sanitizer.assert_clean(f"fuzz case seed={case_seed}")
        except AliasViolationError as exc:
            return FuzzFailure(
                case=record, shrunk=record, error=str(exc),
                context={"kind": "alias-sanitizer"},
                seed=case_seed, cases_run=i + 1,
            )
        except DivergenceError as exc:
            shrunk = record
            if shrink:
                from repro.sim.shrink import shrink_case

                shrunk = shrink_case(record, code_factory=code_factory)
            return FuzzFailure(
                case=record,
                shrunk=shrunk,
                error=str(exc),
                context=getattr(exc, "context", {}),
                seed=case_seed,
                cases_run=i + 1,
            )
        if on_progress is not None:
            on_progress(i + 1, record)
        i += 1
    return None


def replay_file(path, *, code_factory=make_code) -> DivergenceError | None:
    """Re-run a saved repro file.

    Returns the :class:`DivergenceError` if the failure still
    reproduces, ``None`` if the stack now passes the case.
    """
    with open(path) as f:
        record = json.load(f)
    record.pop("original", None)
    record.pop("error", None)
    try:
        run_case_dict(record, code_factory=code_factory)
    except DivergenceError as exc:
        return exc
    return None
