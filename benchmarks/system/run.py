"""System benchmark: object gateway -> socket cluster -> Liberation kernel.

One run (the ``command`` of ``BENCHMARK.json`` with its arguments)::

    python3 benchmarks/system/run.py --workload bulk-rw --seed 1 --seconds 30 --trace 0

builds a real :class:`LocalCluster` on loopback TCP from ``src/``,
drives the workload, verifies every byte, and prints the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).  The
last line of standard output is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

and the line before it the run record (seed, workload, geometry, host).

A set of runs, each in a fresh process, for ``compare.py``::

    python3 benchmarks/system/run.py --runs 5 --json A.json [--workload NAME ...]

Exits non-zero if any output was wrong, and without a result if the
program source (``src/repro``) is not next to the benchmark.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

#: ``run_seconds`` in ``BENCHMARK.json``
DEFAULT_SECONDS = 30.0
#: upper bound on one run of a set
RUN_TIMEOUT_S = 900


def _use_checkout_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no program source at {SRC / 'repro'}; "
                 "run from the root of a checkout of the repository")
    sys.path.insert(0, str(SRC))


# -- run record ---------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        return pathlib.Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _time_wait() -> int | None:
    """TCP sockets in TIME_WAIT: one connection per RPC leaves many."""
    for line in (_read("/proc/net/sockstat") or "").splitlines():
        if line.startswith("TCP:"):
            fields = line.split()[1:]
            stats = dict(zip(fields[::2], fields[1::2]))
            return int(stats["tw"]) if "tw" in stats else None
    return None


def _git_commit() -> str | None:
    git = ROOT / ".git"
    head = _read(str(git / "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(str(git / ref))
    if commit is not None:
        return commit
    for line in (_read(str(git / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def run_record(wl, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": dataclasses.asdict(wl),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "ip_local_port_range": _read("/proc/sys/net/ipv4/ip_local_port_range"),
        "tcp_tw_reuse": _read("/proc/sys/net/ipv4/tcp_tw_reuse"),
        "tcp_time_wait_at_start": _time_wait(),
    }


# -- one run ------------------------------------------------------------------


def single(name: str, seed: int, seconds: float, trace: bool) -> int:
    import harness
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    record = run_record(wl, seed, seconds, trace)
    result = asyncio.run(harness.run(wl, seed, seconds, trace))
    units = harness.LAYER_UNITS if trace else harness.E2E_UNITS
    if set(result.metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(result.metrics) ^ set(units))} "
                           "are computed or declared but not both")
    for metric, unit in units.items():
        print(f"{name:18s} {metric:52s} {result.metrics[metric]:14.6g} {unit}")
    for example in result.examples:
        print(f"MISMATCH {example}")
    print(json.dumps({"record": record, "info": result.info}))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m: {"value": result.metrics[m], "unit": u} for m, u in units.items()},
    }))
    return 0 if result.correct else 1


# -- a set of runs ------------------------------------------------------------


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def run_set(names: list[str], seed: int, runs: int, seconds: float, trace: bool,
            out: str | None) -> int:
    """``runs`` rounds over ``names``, each run a fresh process."""
    records, status = [], 0
    for i in range(runs):
        for name in names:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed + i), "--seconds", str(seconds), "--trace", str(int(trace))]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
                meta = json.loads(lines[-2])
            except (IndexError, json.JSONDecodeError):
                result, meta = None, {}
            ok = proc.returncode == 0 and result is not None and result["correct"]
            status |= not ok
            records.append({"workload": name, "seed": seed + i, "returncode": proc.returncode,
                            "result": result, **meta})
            verdict = "ok" if ok else f"FAILED (exit {proc.returncode})"
            print(f"round {i + 1}/{runs} {name:18s} seed {seed + i}: {verdict}", flush=True)
            if not ok:
                sys.stderr.write(proc.stderr[-2000:])

    summary: dict = {}
    for name in names:
        done = [r["result"] for r in records if r["workload"] == name and r["result"]]
        metrics = sorted({m for res in done for m in res["metrics"]})
        summary[name] = {
            m: {"unit": done[0]["metrics"][m]["unit"],
                **_quartiles([res["metrics"][m]["value"] for res in done])}
            for m in metrics
        }
        for m, s in summary[name].items():
            print(f"{name:18s} {m:52s} median {s['median']:12.6g}  "
                  f"q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g} {s['unit']}")
    if out:
        pathlib.Path(out).write_text(json.dumps(
            {"seconds": seconds, "trace": trace, "runs": records, "summary": summary},
            indent=1) + "\n")
    return status


def main(argv: list[str] | None = None) -> int:
    _use_checkout_source()
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=list(WORKLOADS),
                    help="workload to run (repeatable; default: all, as a set)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="1: per-layer metrics from traced windows")
    ap.add_argument("--runs", type=int, help="runs per workload, each in a fresh process")
    ap.add_argument("--json", help="write the set's runs and summary here")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    names = args.workload or list(WORKLOADS)
    if args.runs is None and args.json is None and len(names) == 1:
        return single(names[0], args.seed, args.seconds, bool(args.trace))
    return run_set(names, args.seed, args.runs or 1, args.seconds, bool(args.trace), args.json)


if __name__ == "__main__":
    sys.exit(main())
