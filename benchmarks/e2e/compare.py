#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py A.json B.json

``A.json`` and ``B.json`` are result files written by ``run.py`` (copy
``benchmarks/output/e2e/result.json`` aside after each set of runs): A
is the base, B the change.  Only valid untraced runs count, and the
i-th run of a workload in A pairs with its i-th run in B, so make the
runs of both sides alternately.

For every (workload, end-to-end metric) pair measured on both sides it
prints each side's median and quartiles, the share of pairs B wins and a
verdict, using each metric's ``bound`` from ``BENCHMARK.json``:

* ``improved``   — B wins at least nine pairs in ten (ties count for
  neither) and the medians differ by more than A's quartile spread;
* ``regressed``  — B's median is worse than A's by more than the bound
  while both sides' spreads stay within it;
* ``unresolved`` — either side's spread is wider than the bound, unless
  every B run reads better than every A run;
* ``unchanged``  — otherwise.

Exit status 1 when any pair regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from stats import quartiles, relative_spread

ROOT = Path(__file__).resolve().parents[2]


def verdict(a: list[float], b: list[float], bound: float,
            better: str) -> tuple[str, float]:
    """``(verdict, share of pairs B wins)`` for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    share = wins / len(pairs)
    qa1, ma, qa3 = quartiles(a)
    _, mb, _ = quartiles(b)
    gain = sign * (mb - ma)
    spread = max(relative_spread(a), relative_spread(b))
    if share >= 0.9 and gain > qa3 - qa1:
        return "improved", share
    if -gain > bound * abs(ma):
        return ("regressed" if spread <= bound else "unresolved"), share
    if spread > bound and not all(
        sign * (y - x) > 0 for x in a for y in b
    ):
        return "unresolved", share
    return "unchanged", share


def _values(path: str) -> dict[tuple[str, str], list[float]]:
    with open(path, encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    out: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        if run["trace"] or not run["valid"] or not run["correct"]:
            continue
        for name, m in run["metrics"].items():
            out.setdefault((run["workload"], name), []).append(m["value"])
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    a, b = _values(argv[0]), _values(argv[1])
    regressed = False
    print(f"{'workload':<13} {'metric':<12} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'B wins':>7}  verdict")
    gated = [w["name"] for w in spec["workloads"]]
    for workload in gated + sorted({w for w, _ in a} - set(gated)):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            v, share = verdict(a[key], b[key], metric["bound"],
                               metric["better"])
            regressed |= v == "regressed"
            cols = []
            for values in (a[key], b[key]):
                q1, med, q3 = quartiles(values)
                cols.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] (n={len(values)})")
            print(f"{workload:<13} {metric['name']:<12} {cols[0]:>30} "
                  f"{cols[1]:>30} {share:>7.0%}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
