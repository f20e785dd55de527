#!/usr/bin/env python3
"""Perf-ledger gate: diff this run's ``BENCH_*.json`` ledgers against the
previous run's.

CI keeps two ledgers as artifacts and gates each against the previous
run's copy.  One entry of :data:`GATES` per ledger holds its artifact
name, the flag pair that names its two files, the diff, the threshold
and the noise floor:

* ``BENCH_vectorized.json`` (``--baseline``/``--current``): the
  ``cells-serial``/``cells-process`` speedup per ``(experiment, n)``
  fails on a drop of more than 20%, unless both runs' fast-side wall
  sits under 0.05 s;
* ``BENCH_serve.json`` (``--serve-baseline``/``--serve-current``): the
  ``offline``/``closed`` speedup, the same way at 25%.

Both speedups are machine-invariant: both sides of a pair run on the
same host in the same run, so host speed divides out of the ratio
(:func:`repro.analysis.benchio.diff_bench_ratios`).  The serve gate is
looser because one closed-loop run has more scheduling noise than a
batch of cells.  A point whose fast-side walls both sit under the floor
is reported but never gated: µs-scale walls measure scheduler jitter.
The million-node peak RSS is gated by CI's ``paired-gate`` job instead.

``BENCH_vectorized.json`` also prints its ``CALIBRATION`` row (a fixed
NumPy workload timing both runs record) and the absolute wall-clock
drift per row, warn-only: across runner generations drift cannot tell
slow code from a slow machine.

A missing, empty or corrupt baseline (first run, expired artifact) is a
warn-only bootstrap: the tool exits 0 and the current rows become the
next baseline.  So does a ledger with no point in both files.  An empty
current file fails (exit 1), as does any gated regression.

Usage (CI passes one pair per job)::

    PYTHONPATH=src python tools/perf_ledger.py \\
        --baseline previous/BENCH_vectorized.json \\
        --current benchmarks/output/BENCH_vectorized.json
"""

from __future__ import annotations

import argparse
import functools
import pathlib
import sys
from typing import Callable, NamedTuple

from repro.analysis.benchio import (
    BENCH_FILENAME,
    CALIBRATION_EXPERIMENT,
    diff_bench_ratios,
    diff_bench_rows,
    read_bench_rows,
)


class Gate(NamedTuple):
    """One ledger's gate: which files, which diff, how far, above what."""

    artifact: str
    flag: str  # prefix of the --<flag>baseline / --<flag>current pair
    what: str  # the gated quantity, for the report lines
    diff: Callable[..., tuple[list[dict], list[dict]]]
    threshold: float
    floor: float


GATES = (
    Gate(BENCH_FILENAME, "", "cells-serial/cells-process speedup",
         functools.partial(diff_bench_ratios,
                           backends=("cells-serial", "cells-process")),
         threshold=0.20, floor=0.05),
    Gate("BENCH_serve.json", "serve-", "offline/closed speedup",
         functools.partial(diff_bench_ratios, backends=("offline", "closed")),
         threshold=0.25, floor=0.05),
)


def _key(delta: dict) -> str:
    backend = f" {delta['backend']}" if "backend" in delta else ""
    return f"{delta['experiment']} n={delta['n']}{backend}"


def _report(label: str, deltas: list[dict], flagged: list[dict],
            mark: str) -> None:
    keys = {_key(d) for d in flagged}
    for d in deltas:
        print(f"  {label} {_key(d):<24} {d['baseline']:.3f} -> "
              f"{d['current']:.3f} ({d['ratio']:.2f}x)  "
              f"{mark if _key(d) in keys else 'ok'}")


def _host_context(baseline: list[dict], current: list[dict]) -> None:
    """The calibration walls and the warn-only absolute wall drift."""
    def calibration(rows):
        walls = [r.get("wall_s") for r in rows
                 if r.get("experiment") == CALIBRATION_EXPERIMENT]
        return next((float(w) for w in walls
                     if isinstance(w, (int, float)) and w > 0), None)

    cal_base, cal_cur = calibration(baseline), calibration(current)
    if cal_base is not None and cal_cur is not None:
        print(f"perf-ledger: host calibration {cal_base:.4f}s -> "
              f"{cal_cur:.4f}s ({cal_cur / cal_base:.2f}x; absolute "
              "wall-clock drift in that direction is the machine, not the code)")
    elif cal_cur is not None:
        print(f"perf-ledger: host calibration {cal_cur:.4f}s "
              "(baseline has no calibration row)")
    deltas, slower = diff_bench_rows(baseline, current, "wall_s",
                                     max_regression=0.20, floor=0.05)
    _report("wall ", deltas, slower, "slower (warn-only)")
    if slower:
        print(f"perf-ledger: {len(slower)} row(s) drifted beyond 20% "
              "absolute wall clock — warn-only (heterogeneous runners; "
              "the speedup ratio is the gate)")


def gate(spec: Gate, baseline_path: str, current_path: str) -> int:
    """Run one ledger's gate; returns its exit code."""
    current = read_bench_rows(current_path)
    if not current:
        print(f"perf-ledger: no rows in current {spec.artifact} "
              f"{current_path}", file=sys.stderr)
        return 1
    baseline = read_bench_rows(baseline_path)
    if not baseline:
        state = ("missing" if not pathlib.Path(baseline_path).exists()
                 else "empty/corrupt")
        print(f"perf-ledger: {spec.artifact} baseline {baseline_path} is "
              f"{state}; warn-only bootstrap run (current rows become the "
              "next baseline)")
        return 0
    if spec.artifact == BENCH_FILENAME:  # the ledger with walls + calibration
        _host_context(baseline, current)
    deltas, regressions = spec.diff(
        baseline, current, max_regression=spec.threshold, floor=spec.floor,
    )
    if not deltas:
        print(f"perf-ledger: no {spec.what} point is in both "
              f"{spec.artifact} files; warn-only (nothing to gate)")
        return 0
    print(f"perf-ledger: {len(deltas)} comparable {spec.what} point(s) "
          f"in {spec.artifact} (gate: {spec.threshold:.0%} worse, noise "
          f"floor {spec.floor:g})")
    _report("gate ", deltas, regressions, "REGRESSION")
    if regressions:
        print(f"perf-ledger: {len(regressions)} {spec.artifact} point(s) "
              f"regressed beyond {spec.threshold:.0%}: "
              + ", ".join(_key(d) for d in regressions), file=sys.stderr)
        return 1
    print(f"perf-ledger: no {spec.artifact} regressions")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    for spec in GATES:
        ap.add_argument(f"--{spec.flag}baseline", default=None,
                        help=f"previous run's {spec.artifact} (missing -> "
                             "warn-only bootstrap)")
        ap.add_argument(f"--{spec.flag}current", default=None,
                        help=f"this run's {spec.artifact}")
    args = vars(ap.parse_args(argv))

    pairs = []
    for spec in GATES:
        base, cur = (args[f"{spec.flag.replace('-', '_')}{side}"]
                     for side in ("baseline", "current"))
        if bool(base) != bool(cur):
            ap.error(f"--{spec.flag}baseline and --{spec.flag}current "
                     "must be given together")
        if cur:
            pairs.append((spec, base, cur))
    if not pairs:
        ap.error("nothing to gate: give at least one baseline/current pair")
    return max(gate(spec, base, cur) for spec, base, cur in pairs)


if __name__ == "__main__":
    sys.exit(main())
