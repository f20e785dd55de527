#!/usr/bin/env python3
"""Perf-ledger gate: diff BENCH_vectorized.json against a stored baseline.

The ROADMAP's tracked perf ledger, normalized for heterogeneous runners.
CI's ``smoke-vectorized`` job downloads the previous run's
``BENCH_vectorized`` artifact, re-measures the kernel rows, and runs this
tool to compare the two files:

* **Gating** (exit 1): the machine-invariant *speedup ratios* per
  ``(experiment, n)`` (:func:`repro.analysis.benchio.diff_bench_ratios`)
  — the kernel pair (``serial``/``vectorized``) and the process
  backend's cell-scheduling pair (``cells-serial``/``cells-process``,
  the warm-pool + shm + contiguous-span win).  Both sides of a pair run on
  the same host in the same run, so host speed divides out of the ratio
  — a drop of more than ``--max-regression`` (default 20%) means the
  code itself regressed, whatever machine CI landed on.
* **Warn-only**: absolute wall-clock drift per ``(experiment, n,
  backend)`` (:func:`~repro.analysis.benchio.diff_bench_rows`).  It
  catches everything-got-slower problems a ratio cannot, but across
  runner generations it cannot distinguish a slow kernel from a slow
  machine, so it never fails the job.  The per-run ``CALIBRATION`` row
  (a fixed NumPy workload timing both runs record) is printed alongside
  so a reader can attribute the drift.

A second, independent gate covers the **memory ledger**
(``BENCH_scale.json``, written by ``benchmarks/bench_scale.py``): pass
``--scale-baseline``/``--scale-current`` and the tool diffs the rows'
``peak_rss_mb`` column per ``(experiment, n, backend)``
(:func:`repro.analysis.benchio.diff_mem_rows`).  Peak RSS for a fixed
workload is largely machine-invariant — unlike wall clock it needs no
ratio normalization — so a peak more than ``--mem-max-regression``
(default 20%) above baseline fails the job directly.

A third gate covers the **serving ledger** (``BENCH_serve.json``,
written by ``benchmarks/bench_serve.py``): pass
``--serve-baseline``/``--serve-current`` and the tool gates the
offline/closed wall-clock ratio per ``(experiment, n)`` — the serving
layer's efficiency.  Both sides of the pair run in the same process on
the same host (the offline loop is the very code path the service
executes per query), so host speed divides out; the ratio dropping by
more than ``--max-regression`` means the asyncio/TCP layer itself got
slower.

Rows under the ``--min-wall`` noise floor are reported but never gated
(µs-scale cells measure scheduler jitter, not kernels).  Missing or
unreadable baseline (first run, expired artifact) is **warn-only**: the
tool prints the situation and exits 0, so the ledger bootstraps itself —
the same convention for both the speedup and the memory baselines.

Usage::

    PYTHONPATH=src python tools/perf_ledger.py \
        --baseline previous/BENCH_vectorized.json \
        --current benchmarks/output/BENCH_vectorized.json \
        --scale-baseline previous/BENCH_scale.json \
        --scale-current benchmarks/output/BENCH_scale.json \
        --serve-baseline previous/BENCH_serve.json \
        --serve-current benchmarks/output/BENCH_serve.json
"""

from __future__ import annotations

import argparse
import pathlib
import sys


def _calibration_wall(rows: list[dict]) -> float | None:
    from repro.analysis.benchio import CALIBRATION_EXPERIMENT

    for row in rows:
        if row.get("experiment") == CALIBRATION_EXPERIMENT:
            wall = row.get("wall_s")
            if isinstance(wall, (int, float)) and wall > 0:
                return float(wall)
    return None


def _gate_memory(args) -> int:
    """The peak-RSS gate over the scale ledger; returns an exit code."""
    from repro.analysis.benchio import diff_mem_rows, read_bench_rows

    current = read_bench_rows(args.scale_current)
    if not current:
        print(f"perf-ledger: no rows in current scale file "
              f"{args.scale_current}", file=sys.stderr)
        return 1
    baseline_path = pathlib.Path(args.scale_baseline)
    baseline = read_bench_rows(baseline_path)
    if not baseline:
        state = "missing" if not baseline_path.exists() else "empty/corrupt"
        print(
            f"perf-ledger: scale baseline {baseline_path} is {state}; "
            "warn-only bootstrap run (current rows become the next baseline)"
        )
        return 0
    deltas, regressions = diff_mem_rows(
        baseline, current, max_regression=args.mem_max_regression,
    )
    if not deltas:
        print("perf-ledger: no (experiment, n, backend) key has a "
              "peak_rss_mb in both scale files; memory not comparable")
        return 0
    print(f"perf-ledger: {len(deltas)} comparable memory point(s) "
          f"(gate: peak RSS growth >{args.mem_max_regression:.0%})")
    flagged = {(d["experiment"], d["n"], d["backend"]) for d in regressions}
    for d in deltas:
        mark = ("REGRESSION"
                if (d["experiment"], d["n"], d["backend"]) in flagged
                else "ok")
        print(
            f"  mem   {d['experiment']:>5} n={d['n']:<8} {d['backend']:<8} "
            f"{d['baseline_peak_rss_mb']:.1f}MB -> {d['peak_rss_mb']:.1f}MB "
            f"({d['ratio']:.2f}x, {d['kb_per_node']:.2f} KiB/node)  {mark}"
        )
    if regressions:
        print(
            f"perf-ledger: {len(regressions)} memory point(s) regressed "
            f"beyond {args.mem_max_regression:.0%}: "
            + ", ".join(
                f"{d['experiment']} n={d['n']} {d['backend']}"
                for d in regressions
            ),
            file=sys.stderr,
        )
        return 0 if args.warn_only else 1
    print("perf-ledger: no peak-RSS regressions")
    return 0


def _gate_serve(args) -> int:
    """The offline/closed efficiency gate over the serving ledger."""
    from repro.analysis.benchio import diff_bench_ratios, read_bench_rows

    current = read_bench_rows(args.serve_current)
    if not current:
        print(f"perf-ledger: no rows in current serve file "
              f"{args.serve_current}", file=sys.stderr)
        return 1
    baseline_path = pathlib.Path(args.serve_baseline)
    baseline = read_bench_rows(baseline_path)
    if not baseline:
        state = "missing" if not baseline_path.exists() else "empty/corrupt"
        print(
            f"perf-ledger: serve baseline {baseline_path} is {state}; "
            "warn-only bootstrap run (current rows become the next baseline)"
        )
        return 0
    # efficiency = wall_offline / wall_closed: the "speedup" the direct
    # query loop enjoys over the full asyncio/TCP path.  A drop means the
    # serving layer's relative overhead grew — the code, not the machine.
    deltas, regressions = diff_bench_ratios(
        baseline, current,
        max_regression=args.max_regression, min_wall_s=args.min_wall,
        backends=("offline", "closed"),
    )
    if not deltas:
        print("perf-ledger: no (experiment, n) point has an offline/closed "
              "pair in both serve files; serving efficiency not comparable")
        return 0
    print(f"perf-ledger: {len(deltas)} comparable serving efficiency "
          f"point(s) (gate: ratio drop >{args.max_regression:.0%}, "
          f"noise floor {args.min_wall}s)")
    flagged = {(d["experiment"], d["n"]) for d in regressions}
    for d in deltas:
        mark = "REGRESSION" if (d["experiment"], d["n"]) in flagged else "ok"
        print(
            f"  serve {d['experiment']:>5} n={d['n']:<6} "
            f"{d['baseline_speedup']:.3f} -> {d['speedup']:.3f} "
            f"offline/closed ({d['ratio']:.2f} of baseline)  {mark}"
        )
    if regressions:
        print(
            f"perf-ledger: {len(regressions)} serving point(s) regressed "
            f"beyond {args.max_regression:.0%}: "
            + ", ".join(f"{d['experiment']} n={d['n']}" for d in regressions),
            file=sys.stderr,
        )
        return 0 if args.warn_only else 1
    print("perf-ledger: no serving-efficiency regressions")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", default=None,
                    help="previous run's BENCH JSON (missing -> warn-only)")
    ap.add_argument("--current", default=None,
                    help="this run's BENCH JSON")
    ap.add_argument("--max-regression", type=float, default=0.20,
                    help="fail when the serial/vectorized speedup drops by "
                         "more than this fraction (default 0.20 = 20%%)")
    ap.add_argument("--min-wall", type=float, default=0.05,
                    help="noise floor in seconds: points whose vectorized "
                         "wall clock sits below it are never gated")
    ap.add_argument("--scale-baseline", default=None,
                    help="previous run's BENCH_scale JSON (missing -> "
                         "warn-only); gates peak_rss_mb per row")
    ap.add_argument("--scale-current", default=None,
                    help="this run's BENCH_scale JSON")
    ap.add_argument("--mem-max-regression", type=float, default=0.20,
                    help="fail when a row's peak RSS grows by more than "
                         "this fraction over baseline (default 0.20 = 20%%)")
    ap.add_argument("--serve-baseline", default=None,
                    help="previous run's BENCH_serve JSON (missing -> "
                         "warn-only); gates the offline/closed wall ratio")
    ap.add_argument("--serve-current", default=None,
                    help="this run's BENCH_serve JSON")
    ap.add_argument("--warn-only", action="store_true",
                    help="report regressions but always exit 0")
    args = ap.parse_args(argv)

    if bool(args.baseline) != bool(args.current):
        ap.error("--baseline and --current must be given together")
    if bool(args.scale_baseline) != bool(args.scale_current):
        ap.error("--scale-baseline and --scale-current must be given together")
    if bool(args.serve_baseline) != bool(args.serve_current):
        ap.error("--serve-baseline and --serve-current must be given together")
    if not args.current and not args.scale_current and not args.serve_current:
        ap.error("nothing to gate: give --baseline/--current, "
                 "--scale-baseline/--scale-current and/or "
                 "--serve-baseline/--serve-current")

    mem_rc = _gate_memory(args) if args.scale_current else 0
    serve_rc = _gate_serve(args) if args.serve_current else 0
    mem_rc = mem_rc or serve_rc
    if not args.current:
        return mem_rc

    from repro.analysis.benchio import (
        diff_bench_ratios,
        diff_bench_rows,
        read_bench_rows,
    )

    current = read_bench_rows(args.current)
    if not current:
        print(f"perf-ledger: no rows in current file {args.current}",
              file=sys.stderr)
        return 1
    baseline_path = pathlib.Path(args.baseline)
    baseline = read_bench_rows(baseline_path)
    if not baseline:
        state = "missing" if not baseline_path.exists() else "empty/corrupt"
        print(
            f"perf-ledger: baseline {baseline_path} is {state}; "
            "warn-only bootstrap run (current rows become the next baseline)"
        )
        return mem_rc

    # host context first: was this run on a comparable machine?
    cal_base, cal_cur = _calibration_wall(baseline), _calibration_wall(current)
    if cal_base is not None and cal_cur is not None:
        print(
            f"perf-ledger: host calibration {cal_base:.4f}s -> "
            f"{cal_cur:.4f}s ({cal_cur / cal_base:.2f}x; absolute "
            "wall-clock drift in that direction is the machine, not the code)"
        )
    elif cal_cur is not None:
        print(f"perf-ledger: host calibration {cal_cur:.4f}s "
              "(baseline has no calibration row)")

    # warn-only: absolute wall clock per (experiment, n, backend)
    wall_deltas, wall_regressions = diff_bench_rows(
        baseline, current,
        max_regression=args.max_regression, min_wall_s=args.min_wall,
    )
    wall_flagged = {
        (d["experiment"], d["n"], d["backend"]) for d in wall_regressions
    }
    for d in wall_deltas:
        mark = ("slower (warn-only)"
                if (d["experiment"], d["n"], d["backend"]) in wall_flagged
                else "ok")
        print(
            f"  wall  {d['experiment']:>4} n={d['n']:<6} {d['backend']:<10} "
            f"{d['baseline_wall_s']:.3f}s -> {d['wall_s']:.3f}s "
            f"({d['ratio']:.2f}x)  {mark}"
        )
    if wall_regressions:
        print(
            f"perf-ledger: {len(wall_regressions)} row(s) drifted beyond "
            f"{args.max_regression:.0%} absolute wall clock — warn-only "
            "(heterogeneous runners; the speedup ratio below is the gate)"
        )

    # the gate: machine-invariant speedup ratios per point, for both the
    # kernel pair (serial/vectorized) and the process backend's
    # cell-scheduling pair (cells-serial/cells-process)
    pairs = (
        ("kernel", ("serial", "vectorized")),
        ("process", ("cells-serial", "cells-process")),
    )
    any_deltas = False
    all_regressions: list[str] = []
    for label, backends in pairs:
        deltas, regressions = diff_bench_ratios(
            baseline, current,
            max_regression=args.max_regression, min_wall_s=args.min_wall,
            backends=backends,
        )
        if not deltas:
            print(f"perf-ledger: no (experiment, n) point has a "
                  f"{backends[0]}/{backends[1]} pair in both files; "
                  f"{label} ratios not comparable")
            continue
        any_deltas = True
        print(f"perf-ledger: {len(deltas)} comparable {label} speedup "
              f"point(s) (gate: ratio drop >{args.max_regression:.0%}, "
              f"noise floor {args.min_wall}s)")
        flagged = {(d["experiment"], d["n"]) for d in regressions}
        for d in deltas:
            mark = "REGRESSION" if (d["experiment"], d["n"]) in flagged else "ok"
            print(
                f"  ratio {d['experiment']:>4} n={d['n']:<6} "
                f"{d['baseline_speedup']:.2f}x -> {d['speedup']:.2f}x "
                f"({d['ratio']:.2f} of baseline)  {mark}"
            )
        all_regressions.extend(
            f"{label} {d['experiment']} n={d['n']}" for d in regressions
        )
    if not any_deltas:
        print("perf-ledger: no ratio-comparable point in both files; "
              "warn-only (nothing to gate)")
        return mem_rc
    if all_regressions:
        print(
            f"perf-ledger: {len(all_regressions)} speedup point(s) regressed "
            f"beyond {args.max_regression:.0%}: {', '.join(all_regressions)}",
            file=sys.stderr,
        )
        return mem_rc if args.warn_only else 1
    print("perf-ledger: no speedup regressions")
    return mem_rc


if __name__ == "__main__":
    sys.exit(main())
