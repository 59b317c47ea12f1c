"""Compare two sets of system-benchmark runs against the benchmark's bounds.

    python3 benchmarks/system/compare.py A.json B.json

``A.json`` and ``B.json`` are written by ``run.py --runs R --json``;
A is the baseline.  For every workload x end-to-end metric it prints
each side's median and quartiles and a verdict, using the ``bound`` and
``better`` of that metric in ``BENCHMARK.json``:

* ``ok`` -- B's median is no worse than A's by more than the bound (or
  every run of B reads better than every run of A);
* ``unresolved`` -- either side's spread, (q3 - q1) / median, exceeds
  the bound, so "no worse" cannot be told from noise;
* ``regressed`` -- B's median is worse than A's by more than the bound.

Exits 1 if anything regressed, 2 if a metric is missing from a side.
"""

from __future__ import annotations

import json
import pathlib
import sys

SPEC = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def spread(side: dict) -> float:
    return (side["q3"] - side["q1"]) / abs(side["median"]) if side["median"] else float("inf")


def verdict(a: dict, b: dict, bound: float, higher: bool) -> str:
    sign = 1.0 if higher else -1.0
    if min(sign * v for v in b["values"]) > max(sign * v for v in a["values"]):
        return "ok"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    if sign * (a["median"] - b["median"]) > bound * abs(a["median"]):
        return "regressed"
    return "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    metrics = json.loads(SPEC.read_text())["end_to_end"]
    a, b = (json.loads(pathlib.Path(p).read_text())["summary"] for p in argv)
    status = 0
    counts: dict[str, int] = {}
    print(f"{'workload':18s} {'metric':14s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'change':>8s}  verdict")
    for workload in sorted(set(a) | set(b)):
        for m in metrics:
            name = m["name"]
            sa, sb = a.get(workload, {}).get(name), b.get(workload, {}).get(name)
            if sa is None or sb is None:
                print(f"{workload:18s} {name:14s} missing from {'A' if sa is None else 'B'}")
                status = 2
                continue
            v = verdict(sa, sb, m["bound"], m["better"] == "higher")
            counts[v] = counts.get(v, 0) + 1
            if v == "regressed" and status == 0:
                status = 1
            change = (sb["median"] - sa["median"]) / abs(sa["median"]) if sa["median"] else 0.0
            cols = [f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]" for s in (sa, sb)]
            print(f"{workload:18s} {name:14s} {cols[0]:>30s} {cols[1]:>30s} "
                  f"{change:+8.1%}  {v} (bound {m['bound']:.0%}, "
                  f"spread A {spread(sa):.1%} B {spread(sb):.1%})")
    print(", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
