"""Machine-readable benchmark output (``BENCH_*.json``).

``benchmarks/output/timings.txt`` is a human-oriented log; this module
gives the repo its perf-*trajectory* format: a JSON array of rows

.. code-block:: json

    {"experiment": "E3", "n": 8192, "backend": "vectorized",
     "wall_s": 0.12, "cells": 12, "trials": 98304}

written next to the timings (default: ``BENCH_vectorized.json``).  Rows
are keyed by ``(experiment, n, backend)``: re-recording a key replaces
the old row, so repeated benchmark runs converge to one row per
measurement point instead of appending duplicates.

The file doubles as the repo's tracked **perf ledger**.  CI runners are
heterogeneous — the same commit's wall clock swings 2-3x between runner
generations — so the *gating* comparison is machine-invariant: the
serial/vectorized **speedup ratio** per ``(experiment, n)``
(:func:`speedup_rows`, compared across runs by
:func:`diff_bench_ratios`).  Both kernels run on the same host in the
same process, so host speed divides out of their ratio; a ratio drop
means the vectorized kernel itself regressed.  Absolute wall-clock
drift (:func:`diff_bench_rows`) is still reported — it catches
everything-got-slower problems a ratio cannot — but only as a warning,
because across heterogeneous runners it cannot distinguish a slow
kernel from a slow machine.  Each run also records a
:func:`measure_calibration` row (``experiment="CALIBRATION"``,
``backend="host"``): a fixed NumPy workload timing that quantifies the
host's speed, so a reader of the ledger can attribute absolute drift to
the machine or to the code.  ``tools/perf_ledger.py`` is the CI gate;
the row shape itself is the ``bench.row`` telemetry record
(:mod:`repro.telemetry.records` — re-exported here because the file
format predates the telemetry layer).
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from ..telemetry.records import bench_row

__all__ = [
    "BENCH_FILENAME",
    "CALIBRATION_EXPERIMENT",
    "KERNEL_BENCH_CASES",
    "KERNEL_BENCH_CASES_QUICK",
    "PROCESS_BENCH_CASES",
    "PROCESS_BENCH_CASES_QUICK",
    "SCALE_BENCH_FILENAME",
    "bench_row",
    "calibration_row",
    "diff_bench_ratios",
    "diff_bench_rows",
    "diff_mem_rows",
    "measure_calibration",
    "read_bench_rows",
    "record_bench_rows",
    "speedup_rows",
]

BENCH_FILENAME = "BENCH_vectorized.json"

# the memory-scaling ledger (``benchmarks/bench_scale.py``): same row
# shape plus the optional ``peak_rss_mb`` column, gated by diff_mem_rows
SCALE_BENCH_FILENAME = "BENCH_scale.json"

# the per-run host-speed measurement's ledger key (n=0, backend="host")
CALIBRATION_EXPERIMENT = "CALIBRATION"

_ROW_KEY = ("experiment", "n", "backend")

# The canonical serial-vs-vectorized kernel measurement points, shared by
# ``benchmarks/bench_vectorized.py`` and ``tools/smoke_vectorized.py`` so
# the two writers can never fork the trajectory file into rows keyed by
# diverging (experiment, n) pairs.  Paper scale (non-``fast`` n): one E2
# cell is already 100k probes through the search kernel; a lone E3 cell is
# ~10ms vectorized — fixed per-run overhead would swamp it, so E3 measures
# its whole 12-construction grid.
#
# ``min_speedup`` is the per-case serial/vectorized acceptance bar (None =
# parity-only row, no wall-clock bar):
#
# * E2/E3/E4 replace per-probe scalar search loops (and, for E4, per-group
#   composition loops) — an order of magnitude or more at paper scale, so
#   the >= 5x bar has plenty of headroom;
# * E8's serial loop was never the cell's bottleneck (the KS windows
#   dominate), so its row records parity + trajectory only;
# * E12's event loop is inherently sequential — the vectorized kernel only
#   batches each event's relocation cohort — so the honest bar is modest.
KERNEL_BENCH_CASES = {
    "E2": dict(n=4096, cells=1, trials=100_000, min_speedup=5.0,
               kwargs=dict(fast=False, pf_values=(0.02,))),
    "E3": dict(n=8192, cells=12, trials=12 * 8192, min_speedup=5.0,
               kwargs=dict(fast=False)),
    # one epoch of the full dynamic trajectory at paper-scale n: ~270k
    # construction searches + the q_f/robustness probes (measured ~60x).
    # serial_smoke=False: the serial reference costs ~47s per epoch, so the
    # smoke bench times only the vectorized row and proves parity at quick
    # scale; the full job (--full-serial) still measures the ratio here.
    "E4": dict(n=2048, cells=1, trials=4000, min_speedup=5.0,
               serial_smoke=False,
               kwargs=dict(fast=False, epochs=1, probes=4000)),
    "E8": dict(n=4096, cells=1, trials=100, min_speedup=None,
               kwargs=dict(fast=False)),
    # parity/trajectory row: the event loop is inherently sequential and
    # the honest per-case gain (~1-3x, commensal-heavy) is too close to
    # machine noise for a hard bar
    "E12": dict(n=4096, cells=1, trials=20_000, min_speedup=None,
                kwargs=dict(fast=True)),
}
# The cell-scheduling measurement points for the process backend: the
# same experiment run in-process with the default kernels
# (``cells-serial`` — one core, one cell after another) versus
# dispatched across the warm worker pool (``cells-process``).  Both
# sides run the identical kernels, so the ratio isolates scheduling:
# warm-pool spawn amortization + contiguous worker spans against
# single-core execution.
#
# ``min_ratio`` is the process-beats-serial acceptance bar (1.0 =
# strictly faster, the ROADMAP item-3 acceptance).  A pool cannot beat
# one core on a <4-core host, so the bar is enforced only when the host
# has >= 4 usable cores (the parity assertion is unconditional) — the
# same convention as ``benchmarks/bench_sweep.py``.
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

# fast-scale equivalents for a laptop sanity pass (overhead-dominated:
# expect smaller ratios than the paper-scale acceptance bar)
KERNEL_BENCH_CASES_QUICK = {
    "E2": dict(n=1024, cells=1, trials=20_000, min_speedup=2.0,
               kwargs=dict(fast=True, pf_values=(0.02,))),
    "E3": dict(n=2048, cells=12, trials=12 * 2048, min_speedup=2.0,
               kwargs=dict(fast=True)),
    "E4": dict(n=512, cells=1, trials=2000, min_speedup=2.0,
               kwargs=dict(fast=True, epochs=1)),
    # distinct n from the paper-scale case: quick runs must not replace
    # the full-scale ledger row (rows key by (experiment, n, backend))
    "E8": dict(n=2048, cells=1, trials=20, min_speedup=None,
               kwargs=dict(fast=True, n=2048)),
    "E12": dict(n=1024, cells=1, trials=2000, min_speedup=None,
                kwargs=dict(fast=True, n=1024, sizes=(8, 32), events=2000)),
}


def measure_calibration(repeats: int = 3) -> float:
    """Time a fixed NumPy workload on this host (best of ``repeats``).

    The workload — sorting 1e6 floats plus a 256x256 matmul — pins down
    roughly what the kernels stress (memory-bandwidth-bound array sweeps
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
    """This host's calibration measurement as a ledger/telemetry row."""
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
    max_regression: float = 0.20,
    min_wall_s: float = 0.05,
) -> tuple[list[dict], list[dict]]:
    """Diff two bench-row sets by ``(experiment, n, backend)`` key.

    Returns ``(deltas, regressions)``: one delta record per key present in
    both sets (``ratio`` = current wall clock over baseline), and the
    subset whose current wall clock exceeds ``(1 + max_regression) *
    baseline`` — the perf-ledger CI gate.  Rows where *both* measurements
    sit under ``min_wall_s`` are reported but never flagged: at that scale
    scheduler jitter swamps any real kernel change.
    """
    base = {tuple(r.get(k) for k in _ROW_KEY): r for r in baseline}
    deltas: list[dict] = []
    regressions: list[dict] = []
    for row in current:
        key = tuple(row.get(k) for k in _ROW_KEY)
        ref = base.get(key)
        # partial rows (older writers) are preserved by record_bench_rows;
        # they are skipped here on either side, never a crash
        if ref is None or not ref.get("wall_s") or not row.get("wall_s"):
            continue
        ratio = float(row["wall_s"]) / float(ref["wall_s"])
        delta = {
            "experiment": row["experiment"],
            "n": row["n"],
            "backend": row["backend"],
            "baseline_wall_s": float(ref["wall_s"]),
            "wall_s": float(row["wall_s"]),
            "ratio": round(ratio, 4),
        }
        deltas.append(delta)
        noise_floor = (
            float(row["wall_s"]) < min_wall_s and float(ref["wall_s"]) < min_wall_s
        )
        if ratio > 1.0 + max_regression and not noise_floor:
            regressions.append(delta)
    return deltas, regressions


def diff_mem_rows(
    baseline: list[dict],
    current: list[dict],
    max_regression: float = 0.20,
    min_mb: float = 32.0,
) -> tuple[list[dict], list[dict]]:
    """Diff two bench-row sets' ``peak_rss_mb`` columns — the memory gate.

    Returns ``(deltas, regressions)``: one delta per ``(experiment, n,
    backend)`` key carrying a positive ``peak_rss_mb`` in both sets
    (``ratio`` = current peak over baseline, ``kb_per_node`` from the
    current row), and the subset whose current peak exceeds ``(1 +
    max_regression) * baseline``.  Unlike wall clock, peak RSS is largely
    machine-invariant for a fixed workload, so the absolute ratio *is*
    the gate.  Keys where both peaks sit under ``min_mb`` are reported
    but never flagged: down there the interpreter's own footprint
    (allocator arenas, import churn) swamps any kernel change.
    """
    base = {tuple(r.get(k) for k in _ROW_KEY): r for r in baseline}
    deltas: list[dict] = []
    regressions: list[dict] = []
    for row in current:
        key = tuple(row.get(k) for k in _ROW_KEY)
        ref = base.get(key)
        if ref is None or not ref.get("peak_rss_mb") or not row.get("peak_rss_mb"):
            continue
        cur_mb = float(row["peak_rss_mb"])
        base_mb = float(ref["peak_rss_mb"])
        delta = {
            "experiment": row["experiment"],
            "n": row["n"],
            "backend": row["backend"],
            "baseline_peak_rss_mb": base_mb,
            "peak_rss_mb": cur_mb,
            "ratio": round(cur_mb / base_mb, 4),
            "kb_per_node": round(cur_mb * 1024.0 / max(1, int(row["n"])), 3),
        }
        deltas.append(delta)
        noise_floor = cur_mb < min_mb and base_mb < min_mb
        if cur_mb > (1.0 + max_regression) * base_mb and not noise_floor:
            regressions.append(delta)
    return deltas, regressions


def speedup_rows(
    rows: list[dict], backends: tuple[str, str] = ("serial", "vectorized")
) -> list[dict]:
    """Base/fast speedup per ``(experiment, n)`` measurement point.

    Pairs each point's ``backends[0]`` (base) and ``backends[1]`` (fast)
    rows (both must be present with a positive wall clock; calibration
    rows and single-backend points are skipped) into ``{experiment, n,
    wall_serial_s, wall_vectorized_s, speedup}`` — the field names keep
    the original serial/vectorized pair's spelling whatever the pair, so
    every consumer reads one shape (``wall_serial_s`` = base wall,
    ``wall_vectorized_s`` = fast wall).  The default pair gates the
    kernel speedup; ``("cells-serial", "cells-process")`` gates the
    process backend's cell-scheduling win.  Because both sides ran on
    the same host, the host's speed divides out of ``speedup`` — this is
    the machine-invariant quantity the perf ledger gates on.
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
            "wall_serial_s": walls[base_backend],
            "wall_vectorized_s": walls[fast_backend],
            "speedup": round(walls[base_backend] / walls[fast_backend], 4),
        })
    return out


def diff_bench_ratios(
    baseline: list[dict],
    current: list[dict],
    max_regression: float = 0.20,
    min_wall_s: float = 0.05,
    backends: tuple[str, str] = ("serial", "vectorized"),
) -> tuple[list[dict], list[dict]]:
    """Diff base/fast speedups by ``(experiment, n)`` — the
    machine-invariant perf gate.

    Returns ``(deltas, regressions)``: one delta per measurement point
    with a speedup in both sets (``ratio`` = current speedup over
    baseline), and the subset whose speedup fell below ``(1 -
    max_regression) *`` baseline.  Points where both runs' *fast-side*
    wall clock sits under ``min_wall_s`` are reported but never flagged —
    at that scale the ratio is scheduler jitter, not kernel behaviour.
    ``backends`` picks the pair (see :func:`speedup_rows`): the default
    gates the kernel speedup, ``("cells-serial", "cells-process")`` the
    process backend's scheduling win.
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
            "baseline_speedup": ref["speedup"],
            "speedup": row["speedup"],
            "ratio": round(ratio, 4),
        }
        deltas.append(delta)
        noise_floor = (
            row["wall_vectorized_s"] < min_wall_s
            and ref["wall_vectorized_s"] < min_wall_s
        )
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
