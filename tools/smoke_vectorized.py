#!/usr/bin/env python3
"""CI smoke: in-process vs process-backend cells, plus the perf ledger.

Runs the process-backend measurement points (E1/E2/E5 at paper scale,
``repro.analysis.benchio.PROCESS_BENCH_CASES``) twice: in-process
(``cells-serial``) and dispatched across the warm worker pool in
contiguous spans (``cells-process``).  Then it

1. asserts the rendered tables are **byte-identical** (the schedule must
   never show up in a table), and
2. records ``{experiment, n, backend, wall_s, cells, trials}`` rows into
   ``benchmarks/output/BENCH_vectorized.json`` — the machine-readable
   perf-ledger file the CI job diffs against the previous run's artifact
   and uploads.  On hosts with >= 4 usable cores the process side must
   beat in-process by each case's ``min_ratio`` bar (scaled by
   ``--process-margin``) — the ROADMAP item-3 acceptance.  On smaller
   hosts the ratio is recorded warn-only (a pool cannot beat one core).

The ledger also gets a per-run host-calibration row — a fixed NumPy
workload timing that tells a ledger reader whether absolute drift was
the machine or the code (the ratio gate in ``tools/perf_ledger.py``
needs neither).  The runtime's own telemetry (``sweep.run``,
``pool.spawn``/``pool.reuse``, ``sweep.degrade``) goes to
``--telemetry-out`` (default ``<out dir>/telemetry.jsonl``).

The file keeps its historical name so CI's artifact baseline chain
holds.  Exercised by the ``smoke-vectorized`` job in
``.github/workflows/ci.yml``; also handy locally::

    PYTHONPATH=src python tools/smoke_vectorized.py [--quick]
"""

from __future__ import annotations

import argparse
import os
import sys
import time


def _timed(fn, repeats_budget_s: float = 5.0):
    """Run ``fn`` once; if it is quick, repeat and keep the best time
    (min-of-3 shields the ratio check from scheduler jitter on shared CI
    hosts)."""
    t0 = time.perf_counter()
    result = fn()
    best = time.perf_counter() - t0
    if best < repeats_budget_s:
        for _ in range(2):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
    return result, best


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
        help="bench JSON path (default: benchmarks/output/BENCH_vectorized.json)",
    )
    ap.add_argument(
        "--telemetry-out", default=None,
        help="telemetry jsonl path (default: telemetry.jsonl next to --out)",
    )
    args = ap.parse_args(argv)

    import pathlib

    # the measurement points are shared with benchmarks/bench_sweep.py
    # (repro.analysis.benchio)
    from repro.analysis.benchio import (
        BENCH_FILENAME,
        PROCESS_BENCH_CASES,
        PROCESS_BENCH_CASES_QUICK,
        calibration_row,
        measure_calibration,
        record_bench_rows,
    )
    from repro.experiments import run_experiment
    from repro.sim import ExecutionConfig
    from repro.sim.pool import get_pool, shutdown_pool
    from repro.telemetry import TelemetryWriter, set_default_writer

    out_path = pathlib.Path(
        args.out
        if args.out is not None
        else pathlib.Path(__file__).resolve().parent.parent
        / "benchmarks" / "output" / BENCH_FILENAME
    )
    telemetry_path = pathlib.Path(
        args.telemetry_out
        if args.telemetry_out is not None
        else out_path.parent / "telemetry.jsonl"
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

    telemetry = TelemetryWriter(telemetry_path)
    # the process-default sink: the runtime's own events (sweep.run,
    # pool.spawn/reuse, sweep.degrade) land in the uploaded artifact,
    # where the report CLI's pool section reads them back
    previous_writer = set_default_writer(telemetry)
    cal_wall = measure_calibration()
    print(f"host calibration: {cal_wall:.4f}s (fixed NumPy workload)")

    rows, failures = [calibration_row(cal_wall)], []
    cores = os.cpu_count() or 1
    for name, case in process_cases.items():
        kwargs = dict(case["kwargs"], seed=args.seed)
        workers = case["workers"]
        # warm the pool before timing: the warm pool pays spawn once per
        # process by design, so the steady-state scheduling win — not the
        # one-off boot — is what the row records
        get_pool(workers)
        in_table, t_in = _timed(lambda: run_experiment(name, **kwargs))
        proc_cfg = ExecutionConfig(backend="process", workers=workers)
        proc_table, t_proc = _timed(
            lambda: run_experiment(name, exec_config=proc_cfg, **kwargs)
        )
        if in_table.render() != proc_table.render():
            failures.append(
                f"{name}: in-process and process-backend tables differ"
            )
            continue
        ratio = t_in / t_proc
        rows.append(dict(
            experiment=name, n=case["n"], backend="cells-serial",
            wall_s=t_in, cells=case["cells"], trials=case["trials"],
        ))
        rows.append(dict(
            experiment=name, n=case["n"], backend="cells-process",
            wall_s=t_proc, cells=case["cells"], trials=case["trials"],
        ))
        bar = case.get("min_ratio")
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

    set_default_writer(previous_writer)
    telemetry.close()
    record_bench_rows(out_path, rows)
    print(f"wrote {len(rows)} rows to {out_path} "
          f"(telemetry: {telemetry_path})")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("process-backend smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
