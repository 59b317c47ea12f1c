"""Smoke test of the system benchmark: every workload, 0.5 s windows.

    PYTHONPATH=src python -m pytest -q benchmarks/system/test_smoke.py

Each workload runs once untraced and once traced.  The test checks
that every metric ``BENCHMARK.json`` declares is emitted with its unit,
that the oracle passes, and that the per-layer split of the traced ops
adds up to their end-to-end time.  Takes about a minute.
"""

from __future__ import annotations

import asyncio
import json
import math
import pathlib

import pytest

import harness
from workloads import WORKLOADS

SPEC = json.loads((pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
SECONDS = 0.5


def _check_declared(metrics: dict, declared: list[dict], units: dict) -> None:
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert units[m["name"]] == m["unit"], m["name"]
        assert math.isfinite(metrics[m["name"]]), m["name"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end(name):
    res = asyncio.run(harness.run(WORKLOADS[name], seed=7, seconds=SECONDS, trace=False))
    assert res.correct, res.examples
    assert res.failed == 0
    assert res.attempted > 0
    _check_declared(res.metrics, SPEC["end_to_end"], harness.E2E_UNITS)
    # A 0.5 s window may hold no update in its best half; 30 s ones do.
    assert all(res.metrics[m] > 0 for m in ("setup_s", "ops_per_s", "get_p50_ms")), res.metrics


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced(name):
    wl = WORKLOADS[name]
    res = asyncio.run(harness.run(wl, seed=7, seconds=SECONDS, trace=True))
    assert res.correct, res.examples
    assert res.failed == 0
    _check_declared(res.metrics, SPEC["per_layer"], harness.LAYER_UNITS)

    # Every op's layer times are non-negative and add up to its time.
    assert res.splits
    for op_s, split in res.splits:
        assert min(split.values()) >= -1e-9, split
        assert sum(split.values()) == pytest.approx(op_s, rel=0.10)
    # The typical op's layer times add up to the traced p50.
    total = sum(res.info["layer_ms_p50"].values())
    assert total == pytest.approx(res.info["traced_p50_ms"], rel=0.10)

    decodes = res.metrics["codes.decodes"]
    assert decodes > 0 if wl.degraded else decodes == 0
