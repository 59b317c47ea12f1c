"""Ablations over the reproduction's design choices.

1. **Decode-plan caching** -- quantifies how much of the original
   decoder's deficit is the per-call matrix inversion + scheduling
   (Jerasure semantics) vs. the XOR count itself: with caching forced
   on, the baseline's remaining gap is just its extra XORs.
2. **Smart vs dumb bit-matrix decode scheduling** -- reproduces why
   Plank's scheduling exists at all (~2.5x fewer decode XORs than the
   naive lowering), and how far Algorithm 4 goes beyond it.
3. **Kernel vs streaming execution** -- the two word-level executors on
   the same schedule: the bulk-XOR kernel is the production-speed path,
   streaming the measurement-fidelity path.
"""

import itertools

import numpy as np
import pytest

from repro.bitmatrix import liberation_bitmatrix, bitmatrix_decode_schedule
from repro.codes import LiberationOptimal, LiberationOriginal
from repro.core.decoder import decode_schedule

from conftest import emit, filled_stripe


@pytest.fixture(scope="module")
def plan_cache_rows():
    rows = []
    for k, p in [(6, 7), (10, 11), (23, 31)]:
        opt = LiberationOptimal(k, p=p, element_size=4096, execution="streaming")
        lazy = LiberationOriginal(k, p=p, element_size=4096, execution="streaming")
        cached = LiberationOriginal(k, p=p, element_size=4096, execution="streaming")
        cached.cache_decode_plans = True

        import time

        def gbps(code, warm):
            buf = code.alloc_stripe()
            rng = np.random.default_rng(0)
            buf[:k] = rng.integers(0, 2**64, buf[:k].shape, dtype=np.uint64)
            code.encode(buf)
            pair = (1, k - 1)
            if warm:
                code.decode(buf, pair)
            best = float("inf")
            for _ in range(4):  # best-of windows: robust to load spikes
                t0 = time.perf_counter()
                for _ in range(2):
                    code.decode(buf, pair)
                best = min(best, (time.perf_counter() - t0) / 2)
            return code.data_bytes / best / 1e9

        rows.append(
            {
                "k": k,
                "p": p,
                "optimal": gbps(opt, True),
                "original-lazy(jerasure)": gbps(lazy, False),
                "original-cached": gbps(cached, True),
            }
        )
    return rows


def test_ablation_plan_cache(benchmark, plan_cache_rows):
    benchmark(lambda: None)
    emit(
        "ablation_plan_cache",
        plan_cache_rows,
        "Ablation: decode GB/s -- per-call planning (Jerasure) vs cached plans",
    )
    for row in plan_cache_rows:
        # Caching the baseline's plan removes most of its deficit...
        assert row["original-cached"] > 3 * row["original-lazy(jerasure)"]
        # ...but the optimal algorithm still wins on XOR count.
        assert row["optimal"] > row["original-cached"] * 0.9


@pytest.fixture(scope="module")
def scheduling_rows():
    rows = []
    for k, p in [(7, 7), (11, 11), (13, 13)]:
        g = liberation_bitmatrix(p, k)
        pairs = list(itertools.combinations(range(k), 2))
        dumb = sum(
            bitmatrix_decode_schedule(g, p, k, pr, smart=False).n_xors for pr in pairs
        ) / len(pairs)
        smart = sum(
            bitmatrix_decode_schedule(g, p, k, pr, smart=True).n_xors for pr in pairs
        ) / len(pairs)
        opt = sum(decode_schedule(p, k, pr).n_xors for pr in pairs) / len(pairs)
        denom = 2 * p * (k - 1)
        rows.append(
            {
                "k": k,
                "dumb": dumb / denom,
                "smart(plank)": smart / denom,
                "optimal(alg4)": opt / denom,
            }
        )
    return rows


def test_ablation_decode_scheduling(benchmark, scheduling_rows):
    benchmark(lambda: None)
    emit(
        "ablation_decode_scheduling",
        scheduling_rows,
        "Ablation: normalized decode XORs -- dumb vs smart vs Algorithm 4",
    )
    for row in scheduling_rows:
        assert row["dumb"] > 2.0  # naive lowering is catastrophic
        assert 1.1 < row["smart(plank)"] < 1.35
        assert row["optimal(alg4)"] < 1.05


@pytest.mark.parametrize("mode", ["kernel", "streaming"])
def test_ablation_executor_mode(benchmark, filled_stripe, mode):
    code = LiberationOptimal(10, p=11, element_size=4096, execution=mode)
    buf = filled_stripe(code)
    benchmark(code.encode, buf)
