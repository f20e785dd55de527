#!/usr/bin/env python3
"""Judge base/head speedup runs point by point.

Usage, from the repository root::

    python3 tools/judge_speedups.py BASE.jsonl HEAD.jsonl

Each file holds the lines that ``tools/smoke_vectorized.py`` (kind
``cells``) and ``benchmarks/bench_serve.py`` (kind ``serve``) append,
one per run and point.  For each point the judge prints both sides'
median speedup with its quartiles and the head/base ratio of the
medians.  It exits 1 when a head median is more than its kind's bound
below the base's, when a point is on one side only, or when a side is
empty or unreadable.
"""

from __future__ import annotations

import json
import statistics
import sys

BOUNDS = {"cells": 0.20, "serve": 0.25}


def read_side(path: str) -> dict[tuple[str, str], list[float]]:
    """``{(kind, point): [speedup, ...]}`` of one side; ``{}`` when unreadable."""
    points: dict[tuple[str, str], list[float]] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in map(json.loads, fh):
                if line["kind"] not in BOUNDS or not line["speedup"] > 0:
                    raise ValueError(f"bad speedup line {line}")
                points.setdefault((line["kind"], line["point"]), []).append(
                    float(line["speedup"]))
    except (OSError, ValueError, KeyError, TypeError):
        return {}
    return points


def quartiles(values: list[float]) -> list[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(values, n=4)`` gives them."""
    return values * 3 if len(values) == 1 else statistics.quantiles(values, n=4)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/judge_speedups.py BASE.jsonl HEAD.jsonl",
              file=sys.stderr)
        return 2
    base, head = read_side(argv[0]), read_side(argv[1])
    if not base or not head:
        print("judge: a side is empty or unreadable", file=sys.stderr)
        return 1
    failed = []
    for key in sorted(base.keys() | head.keys()):
        name = f"{key[0]} {key[1]}"
        if key not in base or key not in head:
            print(f"{name:<18} on one side only")
            failed.append(name)
            continue
        (b1, bm, b3), (h1, hm, h3) = quartiles(base[key]), quartiles(head[key])
        bound = BOUNDS[key[0]]
        regressed = hm < (1 - bound) * bm
        if regressed:
            failed.append(name)
        print(f"{name:<18} base {bm:.3f} [{b1:.3f}, {b3:.3f}]  head {hm:.3f} "
              f"[{h1:.3f}, {h3:.3f}]  ratio {hm / bm:.3f}  "
              f"{'REGRESSED' if regressed else 'ok'} (bound {bound:.0%})")
    if failed:
        print(f"judge: failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
