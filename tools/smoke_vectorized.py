#!/usr/bin/env python3
"""CI smoke: vectorized kernels vs serial reference on real experiment cells.

Runs the canonical kernel measurement points — E2 (batched secure-search
kernel vs the per-probe scalar loop), E3 (one-pass CSR construction kernel
vs the per-leader ``np.unique`` loop), E4 (one paper-scale epoch of the
dynamic trajectory: batched construction searches + flat-edge-pass group
composition vs the per-probe / per-group reference loops), E8 (batched PoW
window counts vs the per-window loop) and E12 (array relocation vs the
bucket-set churn loop) — under both the ``serial`` and ``vectorized``
execution paths, then

1. asserts the rendered tables are **byte-identical** (kernels must never
   show up in a table), and
2. records ``{experiment, n, backend, wall_s, cells, trials}`` rows into
   ``benchmarks/output/BENCH_vectorized.json`` — the machine-readable
   perf-ledger file the CI job diffs against the previous run's artifact
   and uploads — and checks each case's measured serial/vectorized speedup
   against its own ``min_speedup`` bar (scaled by ``--speedup-margin``;
   parity-only cases carry no bar).

Cases flagged ``serial_smoke=False`` (E4: the serial reference costs ~47s
per paper-scale epoch) keep their parity assertion always-on but run it at
quick scale; the paper-scale serial row — and with it the case's speedup
bar — is measured only under ``--full-serial`` (CI's full job).  The
smoke default still times and records the paper-scale *vectorized* row,
so the ledger's trajectory for the fast path never gaps.

After the kernel cases, the **process-backend** cases (E1/E2/E5 at paper
scale, ``repro.analysis.benchio.PROCESS_BENCH_CASES``) compare in-process
execution of the default kernels (``cells-serial``) against the same
computation dispatched across the warm worker pool with shared-memory
result transport (``cells-process``): tables must stay byte-identical,
and on hosts with >= 4 usable cores the process side must beat serial by
each case's ``min_ratio`` bar (scaled by ``--process-margin``) — the
ROADMAP item-3 acceptance.  On smaller hosts the ratio is recorded
warn-only (a pool cannot beat one core).

Every measurement is also emitted as telemetry (``bench.row`` /
``bench.calibration`` events, default ``<out dir>/telemetry.jsonl``),
along with a per-run host-calibration row — a fixed NumPy workload timing
that tells a ledger reader whether absolute drift was the machine or the
code (the ratio gate in ``tools/perf_ledger.py`` needs neither).

Exercised by the ``smoke-vectorized`` job in ``.github/workflows/ci.yml``;
also handy locally::

    PYTHONPATH=src python tools/smoke_vectorized.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
import time


def _timed(fn, repeats_budget_s: float = 5.0):
    """Run ``fn`` once; if it is quick, repeat and keep the best time
    (one-cell runs are tiny — min-of-3 shields the speedup check from
    scheduler jitter on shared CI hosts)."""
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
        "--speedup-margin", type=float, default=1.0,
        help="scale every case's min_speedup bar by this factor (CI uses "
             "0.6 so shared-runner timing noise cannot fail the job; the "
             "recorded JSON keeps the actual measured ratios)",
    )
    ap.add_argument(
        "--quick", action="store_true",
        help="fast-scale cells (local sanity; CI runs paper scale)",
    )
    ap.add_argument(
        "--full-serial", action="store_true",
        help="measure the paper-scale serial reference even for cases "
             "flagged serial_smoke=False (E4's ~47s/epoch loop); the "
             "smoke default replaces it with a quick-scale parity check",
    )
    ap.add_argument(
        "--process-margin", type=float, default=1.0,
        help="scale every process case's min_ratio bar by this factor "
             "(the bar itself is 1.0 = process strictly beats serial; "
             "only enforced on hosts with >= 4 usable cores)",
    )
    ap.add_argument(
        "--skip-process", action="store_true",
        help="skip the process-backend (cells-serial vs cells-process) "
             "cases entirely",
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

    # the measurement points are shared with benchmarks/bench_vectorized.py
    # (repro.analysis.benchio) so both writers key the same trajectory rows
    from repro.analysis.benchio import (
        BENCH_FILENAME,
        KERNEL_BENCH_CASES,
        KERNEL_BENCH_CASES_QUICK,
        PROCESS_BENCH_CASES,
        PROCESS_BENCH_CASES_QUICK,
        bench_row,
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
    serial_cfg = ExecutionConfig(backend="serial")
    cases = KERNEL_BENCH_CASES_QUICK if args.quick else KERNEL_BENCH_CASES
    process_cases = (
        {} if args.skip_process
        else (PROCESS_BENCH_CASES_QUICK if args.quick else PROCESS_BENCH_CASES)
    )
    if args.only:
        wanted = {name.upper() for name in args.only}
        unknown = wanted - (set(cases) | set(process_cases))
        if unknown:
            print(f"unknown case(s) {sorted(unknown)}; have "
                  f"{sorted(set(cases) | set(process_cases))}",
                  file=sys.stderr)
            return 2
        cases = {k: v for k, v in cases.items() if k in wanted}
        process_cases = {
            k: v for k, v in process_cases.items() if k in wanted
        }

    telemetry = TelemetryWriter(telemetry_path)
    # install as the process-default sink too, so the runtime's own events
    # (sweep.run, pool.spawn/reuse, shm.bytes, sweep.degrade) land in the
    # same artifact as the bench rows — the report CLI's pool/shm section
    # reads them back
    previous_writer = set_default_writer(telemetry)
    cal_wall = measure_calibration()
    telemetry.emit("bench.calibration", wall_s=round(cal_wall, 6))
    print(f"host calibration: {cal_wall:.4f}s (fixed NumPy workload)")

    rows, failures = [calibration_row(cal_wall)], []
    for name, case in cases.items():
        kwargs = dict(case["kwargs"], seed=args.seed)
        skip_serial = not case.get("serial_smoke", True) and not args.full_serial
        if skip_serial:
            # parity stays always-on, but at quick scale: the paper-scale
            # serial reference is a --full-serial (CI full job) measurement
            quick = KERNEL_BENCH_CASES_QUICK[name]
            qkwargs = dict(quick["kwargs"], seed=args.seed)
            q_serial = run_experiment(name, exec_config=serial_cfg, **qkwargs)
            q_vec = run_experiment(name, **qkwargs)
            if q_serial.render() != q_vec.render():
                failures.append(
                    f"{name}: serial and vectorized tables differ "
                    f"(quick-scale parity check)"
                )
                continue
            vec_table, t_vec = _timed(lambda: run_experiment(name, **kwargs))
            rows.append(dict(
                experiment=name, n=case["n"], backend="vectorized",
                wall_s=t_vec, cells=case["cells"], trials=case["trials"],
            ))
            print(
                f"{name} (n={case['n']}): vectorized {t_vec:.3f}s, "
                f"quick-scale parity ok (serial reference deferred to "
                f"--full-serial)"
            )
            continue
        serial_table, t_serial = _timed(
            lambda: run_experiment(name, exec_config=serial_cfg, **kwargs)
        )
        vec_table, t_vec = _timed(lambda: run_experiment(name, **kwargs))
        if serial_table.render() != vec_table.render():
            failures.append(f"{name}: serial and vectorized tables differ")
            continue
        speedup = t_serial / t_vec
        rows.append(dict(
            experiment=name, n=case["n"], backend="serial",
            wall_s=t_serial, cells=case["cells"], trials=case["trials"],
        ))
        rows.append(dict(
            experiment=name, n=case["n"], backend="vectorized",
            wall_s=t_vec, cells=case["cells"], trials=case["trials"],
        ))
        bar = case.get("min_speedup")
        print(
            f"{name} (n={case['n']}): serial {t_serial:.3f}s / "
            f"vectorized {t_vec:.3f}s = {speedup:.1f}x, tables identical"
            + ("" if bar is not None else " (parity-only case)")
        )
        if bar is not None and speedup < bar * args.speedup_margin:
            failures.append(
                f"{name}: speedup {speedup:.1f}x < "
                f"{bar}x * margin {args.speedup_margin}"
            )
    import os

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
    if process_cases:
        shutdown_pool()

    for row in rows:
        # normalize exactly as record_bench_rows will: the event stream and
        # the ledger file must hold byte-equal rows
        telemetry.emit("bench.row", **bench_row(**row))
    set_default_writer(previous_writer)
    telemetry.close()
    record_bench_rows(out_path, rows)
    print(f"wrote {len(rows)} rows to {out_path} "
          f"(telemetry: {telemetry_path})")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("vectorized smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
