#!/usr/bin/env python3
"""Process-backend smoke: in-process vs process-backend cells, and their speedups.

Runs the process-backend measurement points (E1/E2/E5 at paper scale,
:data:`PROCESS_BENCH_CASES`) twice: in-process (``cells-serial``) and
dispatched across the warm worker pool in contiguous spans
(``cells-process``).  Then it

1. asserts the rendered tables are **byte-identical** (the schedule must
   never show up in a table);
2. appends one JSON line per point to ``--out`` (default
   ``benchmarks/output/speedups.jsonl``): ``{"kind": "cells", "point":
   "E1 n=4096", "speedup": ...}``, the serial wall over the process
   wall.  Both sides run on the same host in the same run, so host
   speed divides out of the speedup.  CI's ``paired-gate`` job runs this
   tool on the base and head commits in alternating pairs, and
   ``tools/judge_speedups.py`` compares the two sides' medians;
3. on hosts with >= 4 usable cores, requires the process side to beat
   in-process by each case's ``min_ratio`` bar (scaled by
   ``--process-margin``).  On smaller hosts the speedup is only recorded
   (a pool cannot beat one core).

``REPRO_TELEMETRY=<path>`` records the runtime's own events (the
``sweep.<EXP>`` spans, ``pool.spawn``/``pool.reuse``, ``sweep.degrade``).
Usage::

    PYTHONPATH=src python tools/smoke_vectorized.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

# The same experiment run in-process (one core, one cell after another)
# and across the warm worker pool: both sides run the identical
# computation, so the speedup isolates scheduling (warm-pool spawn
# amortization + contiguous worker spans against single-core execution).
# ``min_ratio`` is the process-beats-serial bar (1.0 = strictly faster),
# enforced only with >= 4 usable cores (the parity check always runs).
# ``benchmarks/bench_sweep.py`` times its scheduling rows on the same
# E1/E2 points.
PROCESS_BENCH_CASES = {
    "E1": dict(n=4096, workers=4, min_ratio=1.0, kwargs=dict(fast=False)),
    "E2": dict(n=4096, workers=4, min_ratio=1.0, kwargs=dict(fast=False)),
    "E5": dict(n=2048, workers=4, min_ratio=1.0, kwargs=dict(fast=False)),
}
# fast-scale equivalents: overhead-dominated, so parity only, no bar
PROCESS_BENCH_CASES_QUICK = {
    "E1": dict(n=1024, workers=2, min_ratio=None, kwargs=dict(fast=True)),
    "E2": dict(n=1024, workers=2, min_ratio=None, kwargs=dict(fast=True)),
    "E5": dict(n=512, workers=2, min_ratio=None, kwargs=dict(fast=True)),
}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--quick", action="store_true",
        help="fast-scale cells (local sanity; CI runs paper scale)",
    )
    ap.add_argument(
        "--process-margin", type=float, default=1.0,
        help="scale every process case's min_ratio bar by this factor "
             "(the bar itself is 1.0 = process strictly beats serial; "
             "only enforced on hosts with >= 4 usable cores)",
    )
    ap.add_argument(
        "--only", nargs="*", default=None, metavar="EXP",
        help="restrict to these experiment IDs (default: all cases)",
    )
    ap.add_argument(
        "--out", default=None,
        help="JSON lines file the speedups are appended to "
             "(default: benchmarks/output/speedups.jsonl)",
    )
    args = ap.parse_args(argv)

    from repro.experiments import run_experiment
    from repro.sim import ExecutionConfig
    from repro.sim.pool import get_pool, shutdown_pool

    out_path = pathlib.Path(
        args.out
        if args.out is not None
        else pathlib.Path(__file__).resolve().parent.parent
        / "benchmarks" / "output" / "speedups.jsonl"
    )
    process_cases = PROCESS_BENCH_CASES_QUICK if args.quick else PROCESS_BENCH_CASES
    if args.only:
        wanted = {name.upper() for name in args.only}
        unknown = wanted - set(process_cases)
        if unknown:
            print(f"unknown case(s) {sorted(unknown)}; have "
                  f"{sorted(process_cases)}", file=sys.stderr)
            return 2
        process_cases = {
            k: v for k, v in process_cases.items() if k in wanted
        }

    lines, failures = [], []
    cores = os.cpu_count() or 1
    for name, case in process_cases.items():
        kwargs = dict(case["kwargs"], seed=args.seed)
        workers = case["workers"]
        # warm the pool before timing: the warm pool pays spawn once per
        # process by design, so the steady-state scheduling win — not the
        # one-off boot — is what the speedup measures
        get_pool(workers)
        proc_cfg = ExecutionConfig(backend="process", workers=workers)
        # best of 3 (shields the speedup from scheduler jitter), the two
        # backends in alternation so that a drift in the host's speed
        # reaches both walls
        t_in = t_proc = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            in_table = run_experiment(name, **kwargs)
            t1 = time.perf_counter()
            proc_table = run_experiment(name, exec_config=proc_cfg, **kwargs)
            t_in = min(t_in, t1 - t0)
            t_proc = min(t_proc, time.perf_counter() - t1)
        if in_table.render() != proc_table.render():
            failures.append(
                f"{name}: in-process and process-backend tables differ"
            )
            continue
        ratio = t_in / t_proc
        lines.append(dict(kind="cells", point=f"{name} n={case['n']}",
                          speedup=round(ratio, 4)))
        bar = case["min_ratio"]
        enforce = bar is not None and cores >= 4
        print(
            f"{name} (n={case['n']}): cells-serial {t_in:.3f}s / "
            f"cells-process {t_proc:.3f}s = {ratio:.2f}x "
            f"({workers} workers), tables identical"
            + ("" if enforce else
               f" (bar not enforced: "
               f"{'parity-only case' if bar is None else f'{cores} core(s)'})")
        )
        if enforce and ratio < bar * args.process_margin:
            failures.append(
                f"{name}: process backend did not beat serial — "
                f"{ratio:.2f}x < {bar}x * margin {args.process_margin} "
                f"({workers} workers on {cores} cores)"
            )
    shutdown_pool()

    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("a", encoding="utf-8") as fh:
        fh.writelines(json.dumps(line) + "\n" for line in lines)
    print(f"appended {len(lines)} speedup(s) to {out_path}")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("process-backend smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
