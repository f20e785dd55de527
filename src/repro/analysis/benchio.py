"""Machine-readable benchmark output (``BENCH_*.json``).

``benchmarks/output/timings.txt`` is a human-oriented log; this module
gives the repo its perf-*trajectory* format: a JSON array of rows

.. code-block:: json

    {"experiment": "E2", "n": 4096, "backend": "cells-process",
     "wall_s": 1.32, "cells": 7, "trials": 700000}

(:func:`bench_row`, the one owner of the row shape).  Rows are keyed by
``(experiment, n, backend)``: re-recording a key replaces the old row,
so repeated benchmark runs converge to one row per measurement point
instead of appending duplicates.  The file is the only record of a row.

The files double as the repo's tracked **perf ledgers**.  CI runners are
heterogeneous — the same commit's wall clock swings 2-3x between runner
generations — so a wall-clock gate compares a machine-invariant
quantity: the **speedup ratio** of a backend pair per ``(experiment,
n)`` — in-process against process-pool cells, or offline against served
queries (:func:`speedup_rows`, compared across runs by
:func:`diff_bench_ratios`).  Both sides run on the same host in the
same process, so host speed divides out of their ratio; a ratio drop
means the code itself regressed.  :func:`diff_bench_rows` compares one
column per row key: the absolute wall-clock drift, which is only ever a
warning because across heterogeneous runners it cannot distinguish slow
code from a slow machine.  Each run also
records a :func:`measure_calibration` row (``experiment="CALIBRATION"``,
``backend="host"``): a fixed NumPy workload timing that quantifies the
host's speed, so a reader of the ledger can attribute absolute drift to
the machine or to the code.  ``tools/perf_ledger.py`` is the CI gate.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

__all__ = [
    "BENCH_FILENAME",
    "CALIBRATION_EXPERIMENT",
    "PROCESS_BENCH_CASES",
    "PROCESS_BENCH_CASES_QUICK",
    "bench_row",
    "calibration_row",
    "diff_bench_ratios",
    "diff_bench_rows",
    "measure_calibration",
    "read_bench_rows",
    "record_bench_rows",
    "speedup_rows",
]

BENCH_FILENAME = "BENCH_vectorized.json"

# the per-run host-speed measurement's ledger key (n=0, backend="host")
CALIBRATION_EXPERIMENT = "CALIBRATION"

_ROW_KEY = ("experiment", "n", "backend")

# The cell-scheduling measurement points for the process backend: the
# same experiment run in-process (``cells-serial`` — one core, one cell
# after another) versus dispatched across the warm worker pool
# (``cells-process``).  Both sides run the identical computation, so the
# ratio isolates scheduling: warm-pool spawn amortization + contiguous
# worker spans against single-core execution.
#
# ``min_ratio`` is the process-beats-serial acceptance bar (1.0 =
# strictly faster, the ROADMAP item-3 acceptance).  A pool cannot beat
# one core on a <4-core host, so the bar is enforced only when the host
# has >= 4 usable cores (the parity assertion is unconditional) — the
# same convention as ``benchmarks/bench_sweep.py``, which times its
# scheduling rows on these kwargs.
PROCESS_BENCH_CASES = {
    "E1": dict(n=4096, cells=10, trials=10 * 100_000, workers=4,
               min_ratio=1.0, kwargs=dict(fast=False)),
    "E2": dict(n=4096, cells=7, trials=7 * 100_000, workers=4,
               min_ratio=1.0, kwargs=dict(fast=False)),
    "E5": dict(n=2048, cells=4, trials=8, workers=4,
               min_ratio=1.0, kwargs=dict(fast=False)),
}
# fast-scale equivalents (distinct n so quick runs never replace the
# paper-scale ledger rows): overhead-dominated, so parity + trajectory
# only — no bar
PROCESS_BENCH_CASES_QUICK = {
    "E1": dict(n=1024, cells=6, trials=6 * 20_000, workers=2,
               min_ratio=None, kwargs=dict(fast=True)),
    "E2": dict(n=1024, cells=7, trials=7 * 20_000, workers=2,
               min_ratio=None, kwargs=dict(fast=True)),
    "E5": dict(n=512, cells=4, trials=8, workers=2,
               min_ratio=None, kwargs=dict(fast=True)),
}

def bench_row(
    experiment: str,
    n: int,
    backend: str,
    wall_s: float,
    cells: int,
    trials: int,
    peak_rss_mb: float | None = None,
) -> dict:
    """One benchmark measurement in the canonical ledger row shape.

    ``peak_rss_mb`` is the optional memory column the serve ledger
    carries; it is omitted (not null-filled) when absent so the
    wall-clock rows keep their shape.
    """
    row = {
        "experiment": str(experiment).upper(),
        "n": int(n),
        "backend": str(backend),
        "wall_s": round(float(wall_s), 6),
        "cells": int(cells),
        "trials": int(trials),
    }
    if peak_rss_mb is not None:
        row["peak_rss_mb"] = round(float(peak_rss_mb), 3)
    return row


def measure_calibration(repeats: int = 3) -> float:
    """Time a fixed NumPy workload on this host (best of ``repeats``).

    The workload — sorting 1e6 floats plus a 256x256 matmul — pins down
    roughly what the experiments stress (memory-bandwidth-bound array sweeps
    plus BLAS throughput) with no dependence on the experiment code, so
    the measurement is comparable across commits.  Best-of: the minimum
    is the least contaminated by scheduler noise.
    """
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(0))
    data = rng.random(1_000_000)
    mat = rng.random((256, 256))
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        np.sort(data)
        mat @ mat
        best = min(best, time.perf_counter() - t0)
    return best


def calibration_row(wall_s: float | None = None) -> dict:
    """This host's calibration measurement as a ledger row."""
    if wall_s is None:
        wall_s = measure_calibration()
    return bench_row(
        experiment=CALIBRATION_EXPERIMENT, n=0, backend="host",
        wall_s=wall_s, cells=0, trials=0,
    )


def read_bench_rows(path: str | os.PathLike) -> list[dict]:
    """Rows currently stored at ``path`` (missing/corrupt file -> empty)."""
    try:
        data = json.loads(pathlib.Path(path).read_text())
    except (OSError, ValueError):
        return []
    return [r for r in data if isinstance(r, dict)] if isinstance(data, list) else []


def diff_bench_rows(
    baseline: list[dict],
    current: list[dict],
    column: str,
    max_regression: float = 0.20,
    floor: float = 0.0,
) -> tuple[list[dict], list[dict]]:
    """Diff one column of two bench-row sets by ``(experiment, n,
    backend)`` key.

    Returns ``(deltas, regressions)``: one delta record per key carrying
    a positive ``column`` value in both sets (``ratio`` = current over
    baseline), and the subset whose current value exceeds ``(1 +
    max_regression) *`` baseline.  Keys where *both* values sit under
    ``floor`` are reported but never flagged: down there scheduler jitter
    (wall clock) or the interpreter's own footprint (peak RSS) swamps any
    code change.  Rows without the column (the calibration row in a
    memory diff, partial rows of older writers) are skipped on either
    side, never a crash.
    """
    base = {tuple(r.get(k) for k in _ROW_KEY): r for r in baseline}
    deltas: list[dict] = []
    regressions: list[dict] = []
    for row in current:
        ref = base.get(tuple(row.get(k) for k in _ROW_KEY))
        if ref is None or not ref.get(column) or not row.get(column):
            continue
        cur, was = float(row[column]), float(ref[column])
        delta = {
            "experiment": row["experiment"],
            "n": row["n"],
            "backend": row["backend"],
            "baseline": was,
            "current": cur,
            "ratio": round(cur / was, 4),
        }
        deltas.append(delta)
        if cur > (1.0 + max_regression) * was and not (
            cur < floor and was < floor
        ):
            regressions.append(delta)
    return deltas, regressions


def speedup_rows(rows: list[dict], backends: tuple[str, str]) -> list[dict]:
    """Base/fast speedup per ``(experiment, n)`` measurement point.

    Pairs each point's ``backends[0]`` (base) and ``backends[1]`` (fast)
    rows (both must be present with a positive wall clock; calibration
    rows and single-backend points are skipped) into ``{experiment, n,
    base_wall_s, fast_wall_s, speedup}``.  ``("cells-serial",
    "cells-process")`` gates the process backend's cell-scheduling win,
    ``("offline", "closed")`` the serving layer's efficiency.  Because
    both sides ran on the same host, the host's speed divides out of
    ``speedup`` — this is the machine-invariant quantity the perf ledger
    gates on.
    """
    base_backend, fast_backend = backends
    by_point: dict[tuple, dict[str, float]] = {}
    for row in rows:
        exp, n, backend = (row.get(k) for k in _ROW_KEY)
        wall = row.get("wall_s")
        if exp == CALIBRATION_EXPERIMENT or backend not in backends:
            continue
        if not isinstance(wall, (int, float)) or wall <= 0:
            continue
        by_point.setdefault((exp, n), {})[backend] = float(wall)
    out = []
    for (exp, n), walls in sorted(by_point.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
        if base_backend not in walls or fast_backend not in walls:
            continue
        out.append({
            "experiment": exp,
            "n": n,
            "base_wall_s": walls[base_backend],
            "fast_wall_s": walls[fast_backend],
            "speedup": round(walls[base_backend] / walls[fast_backend], 4),
        })
    return out


def diff_bench_ratios(
    baseline: list[dict],
    current: list[dict],
    max_regression: float = 0.20,
    floor: float = 0.05,
    *,
    backends: tuple[str, str],
) -> tuple[list[dict], list[dict]]:
    """Diff base/fast speedups by ``(experiment, n)`` — the
    machine-invariant perf gate.

    Returns ``(deltas, regressions)``: one delta per measurement point
    with a speedup in both sets (``ratio`` = current speedup over
    baseline), and the subset whose speedup fell below ``(1 -
    max_regression) *`` baseline.  Points where both runs' *fast-side*
    wall clock sits under ``floor`` seconds are reported but never
    flagged — at that scale the ratio is scheduler jitter, not code
    behaviour.  ``backends`` picks the pair (see :func:`speedup_rows`).
    """
    base = {
        (r["experiment"], r["n"]): r for r in speedup_rows(baseline, backends)
    }
    deltas: list[dict] = []
    regressions: list[dict] = []
    for row in speedup_rows(current, backends):
        ref = base.get((row["experiment"], row["n"]))
        if ref is None:
            continue
        ratio = row["speedup"] / ref["speedup"]
        delta = {
            "experiment": row["experiment"],
            "n": row["n"],
            "baseline": ref["speedup"],
            "current": row["speedup"],
            "ratio": round(ratio, 4),
        }
        deltas.append(delta)
        noise_floor = row["fast_wall_s"] < floor and ref["fast_wall_s"] < floor
        if ratio < 1.0 - max_regression and not noise_floor:
            regressions.append(delta)
    return deltas, regressions


def record_bench_rows(path: str | os.PathLike, rows: list[dict]) -> list[dict]:
    """Merge ``rows`` into the JSON file at ``path``; returns the new content.

    Existing rows with the same ``(experiment, n, backend)`` key are
    replaced; everything else is kept, and the result is sorted by that key
    so the file is diff-stable across runs.
    """
    path = pathlib.Path(path)
    merged = {
        tuple(r.get(k) for k in _ROW_KEY): r for r in read_bench_rows(path)
    }
    for row in rows:
        row = bench_row(**row)  # normalize and validate the shape
        merged[tuple(row[k] for k in _ROW_KEY)] = row
    out = sorted(
        merged.values(),
        key=lambda r: (str(r["experiment"]), int(r["n"]), str(r["backend"])),
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=2) + "\n")
    return out
