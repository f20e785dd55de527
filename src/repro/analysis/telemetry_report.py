"""Summarise a telemetry event stream (``repro telemetry report``).

One jsonl file from :mod:`repro.telemetry` can hold events from every
layer at once — a dispatch spool's unit lifecycle, the sweep substrate's
per-cell kernel timings, and the benchmark ledger's rows.  This module
turns such a stream into the operator-facing views:

* :func:`summarize_events` — the structured summary (event counts, the
  dispatch funnel with lease-latency/execute percentiles, per-sweep cell
  timing trends, the serving layer's
  throughput/latency view — QPS, p50/p95/p99, per-epoch breakdown,
  publish walls, churn clips — and bench rows + host calibration);
* :func:`render_report` — the same as text tables;
* :func:`bench_rows_from_events` — reconstruct the perf ledger's
  canonical rows from ``bench.row`` events alone (last emission wins per
  ``(experiment, n, backend)`` key, exactly like
  :func:`repro.analysis.benchio.record_bench_rows` merging); and
* :func:`check_bench` — verify that reconstruction against a
  ``BENCH_vectorized.json`` file: every row derivable from the events
  must appear byte-equal in the file.  CI runs this against the smoke
  job's artifacts, so the event stream and the ledger can never silently
  disagree.

Readers are permissive by the telemetry contract: unknown event types
count toward the totals and are otherwise ignored, never an error.
"""

from __future__ import annotations

from collections import Counter

from ..telemetry.records import bench_row
from .benchio import read_bench_rows, speedup_rows

__all__ = [
    "bench_rows_from_events",
    "check_bench",
    "render_mem_report",
    "render_report",
    "summarize_events",
]

_ROW_KEY = ("experiment", "n", "backend")


def _stats(values: list[float]) -> dict | None:
    """count/p50/p95/max for a latency-like sample (None when empty)."""
    if not values:
        return None
    ordered = sorted(values)

    def pctl(q: float) -> float:
        # nearest-rank on the sorted sample: robust for the small counts
        # a smoke run produces, no interpolation surprises
        rank = max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))
        return ordered[rank]

    return {
        "count": len(ordered),
        "p50": round(pctl(0.50), 6),
        "p95": round(pctl(0.95), 6),
        "p99": round(pctl(0.99), 6),
        "max": round(ordered[-1], 6),
        "total": round(sum(ordered), 6),
    }


def _walls(events: list[dict], field: str = "wall_s") -> list[float]:
    return [
        float(e[field]) for e in events
        if isinstance(e.get(field), (int, float))
    ]


def bench_rows_from_events(events: list[dict]) -> list[dict]:
    """The perf ledger's rows, reconstructed from ``bench.row`` events.

    Last emission wins per ``(experiment, n, backend)`` key and the result
    is sorted by that key — the same merge discipline
    :func:`~repro.analysis.benchio.record_bench_rows` applies to the JSON
    file, so a stream and the file it fed converge on identical rows.
    """
    merged: dict[tuple, dict] = {}
    for event in events:
        if event.get("type") != "bench.row":
            continue
        try:
            fields = {
                k: event[k]
                for k in ("experiment", "n", "backend", "wall_s", "cells", "trials")
            }
            peak = event.get("peak_rss_mb")
            if isinstance(peak, (int, float)) and not isinstance(peak, bool):
                fields["peak_rss_mb"] = peak
            row = bench_row(**fields)
        except (KeyError, TypeError, ValueError):
            continue  # malformed/foreign row event: skip, never crash
        merged[tuple(row[k] for k in _ROW_KEY)] = row
    return sorted(
        merged.values(),
        key=lambda r: (str(r["experiment"]), int(r["n"]), str(r["backend"])),
    )


def summarize_events(events: list[dict]) -> dict:
    """The structured summary every view renders from."""
    by_type: dict[str, list[dict]] = {}
    for event in events:
        by_type.setdefault(str(event.get("type")), []).append(event)

    summary: dict = {
        "events": len(events),
        "types": {t: len(es) for t, es in sorted(by_type.items())},
    }

    # -- dispatch funnel ---------------------------------------------------
    serves = by_type.get("dispatch.serve", [])
    completes = by_type.get("dispatch.complete", [])
    if any(t.startswith("dispatch.") for t in by_type):
        requeues = Counter(
            str(e.get("reason", "?")) for e in by_type.get("dispatch.requeue", [])
        )
        summary["dispatch"] = {
            "served_units": sum(int(e.get("units", 0)) for e in serves) or None,
            "leases": len(by_type.get("dispatch.lease", [])),
            "executes": len(by_type.get("dispatch.execute", [])),
            "verdicts": dict(Counter(
                str(e.get("verdict", "?")) for e in completes
            )),
            "requeues": dict(requeues),
            "corrupt_units": len(by_type.get("dispatch.corrupt_unit", [])),
            "lease_latency_s": _stats(_walls(completes, "lease_latency_s")),
            "execute_wall_s": _stats(
                _walls(by_type.get("dispatch.execute", []))
            ),
        }
        quorums = by_type.get("dispatch.quorum", [])
        poisons = by_type.get("dispatch.poison", [])
        suspects = by_type.get("dispatch.suspect", [])
        if quorums or poisons or suspects:
            # a worker's suspicion counter only grows; the stream's last
            # dispatch.suspect per worker is its final standing
            suspicion: dict[str, int] = {}
            for e in suspects:
                suspicion[str(e.get("worker", "?"))] = int(e.get("suspicion", 0))
            summary["dispatch"]["quorum"] = {
                "outcomes": dict(Counter(
                    str(e.get("outcome", "?")) for e in quorums
                )),
                "poisoned": len(poisons),
                "suspicion": dict(sorted(
                    suspicion.items(), key=lambda kv: (-kv[1], kv[0])
                )),
            }

    # -- sweep cell trends -------------------------------------------------
    cells: dict[tuple, list[dict]] = {}
    for e in by_type.get("sweep.cell", []):
        key = (str(e.get("experiment")), str(e.get("kernel")), str(e.get("backend")))
        cells.setdefault(key, []).append(e)
    runs: dict[tuple, list[dict]] = {}
    for e in by_type.get("sweep.run", []):
        key = (str(e.get("experiment")), str(e.get("kernel")), str(e.get("backend")))
        runs.setdefault(key, []).append(e)
    if cells or runs:
        sweeps = []
        for key in sorted(set(cells) | set(runs)):
            experiment, kernel, backend = key
            entry = {
                "experiment": experiment,
                "kernel": kernel,
                "backend": backend,
                "runs": len(runs.get(key, [])),
                "run_wall_s": round(sum(_walls(runs.get(key, []))), 6),
                "cell_wall_s": _stats(_walls(cells.get(key, []))),
            }
            sweeps.append(entry)
        summary["sweeps"] = sweeps

    # -- warm pool ---------------------------------------------------------
    spawns = by_type.get("pool.spawn", [])
    reuses = by_type.get("pool.reuse", [])
    broken = by_type.get("pool.broken", [])
    degrades = by_type.get("sweep.degrade", [])
    if spawns or reuses or broken or degrades:
        pool: dict = {
            "spawns": len(spawns),
            "reuses": len(reuses),
            "broken": len(broken),
        }
        if degrades:
            pool["degrades"] = dict(Counter(
                f"{e.get('experiment', '?')}:{e.get('reason', '?')}"
                for e in degrades
            ))
        summary["pool"] = pool

    # -- memory: peak-RSS samples ------------------------------------------
    peaks = by_type.get("mem.peak", [])
    if peaks:
        phases: dict[str, list[float]] = {}
        for e in peaks:
            value = e.get("peak_rss_mb")
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                phases.setdefault(str(e.get("phase", "?")), []).append(float(value))
        mem: dict = {
            "samples": sum(len(vs) for vs in phases.values()),
            # ru_maxrss is a lifetime high-water mark, so the overall peak
            # is the max over every sample whatever phase reached it first
            "peak_rss_mb": round(
                max((max(vs) for vs in phases.values()), default=0.0), 3
            ) or None,
            "phases": {
                phase: {
                    "samples": len(vs),
                    "p50": round(sorted(vs)[len(vs) // 2], 3),
                    "max": round(max(vs), 3),
                }
                for phase, vs in sorted(phases.items())
            },
        }
        summary["mem"] = mem

    # -- serving layer -----------------------------------------------------
    serve_requests = by_type.get("serve.request", [])
    publishes = by_type.get("serve.publish", [])
    clips = by_type.get("churn.clipped", [])
    if serve_requests or publishes or clips:
        timestamps = [
            float(e["ts"]) for e in serve_requests
            if isinstance(e.get("ts"), (int, float))
        ]
        # QPS over the span the stream actually covers; min/max (not
        # first/last) keeps it right for out-of-order concatenations
        span_s = max(timestamps) - min(timestamps) if len(timestamps) > 1 else 0.0
        per_epoch: dict[int, list[dict]] = {}
        for e in serve_requests:
            per_epoch.setdefault(int(e.get("epoch", -1)), []).append(e)
        serve: dict = {
            "requests": len(serve_requests),
            "qps": round(len(serve_requests) / span_s, 3) if span_s > 0 else None,
            "latency_s": _stats(_walls(serve_requests, "latency_s")),
            "outcomes": dict(Counter(
                str(e.get("outcome", "?")) for e in serve_requests
            )),
            "epochs": {
                epoch: _stats(_walls(events_at, "latency_s"))
                for epoch, events_at in sorted(per_epoch.items())
            },
        }
        if publishes:
            serve["publishes"] = {
                "count": len(publishes),
                "epochs": sorted(int(e.get("epoch", -1)) for e in publishes),
                "wall_s": _stats(_walls(publishes)),
            }
        if clips:
            serve["churn_clips"] = [
                {
                    "model": str(e.get("model", "?")),
                    "rate": e.get("rate"),
                    "cap": e.get("cap"),
                }
                for e in clips
            ]
        summary["serve"] = serve

    # -- bench ledger ------------------------------------------------------
    rows = bench_rows_from_events(events)
    timings = by_type.get("bench.timing", [])
    calibrations = _walls(by_type.get("bench.calibration", []))
    if rows or timings or calibrations:
        summary["bench"] = {
            "rows": rows,
            "speedups": speedup_rows(rows),
            "timings": len(timings),
            "calibration_wall_s": (
                round(min(calibrations), 6) if calibrations else None
            ),
        }
    return summary


def render_report(summary: dict) -> str:
    """The summary as operator-facing text."""
    lines = [f"telemetry report: {summary['events']} event(s)"]
    for etype, count in summary["types"].items():
        lines.append(f"  {count:>6}  {etype}")

    dispatch = summary.get("dispatch")
    if dispatch:
        lines.append("")
        lines.append("dispatch funnel:")
        if dispatch["served_units"]:
            lines.append(f"  units served      {dispatch['served_units']}")
        lines.append(f"  leases            {dispatch['leases']}")
        if dispatch["executes"]:
            lines.append(f"  executions        {dispatch['executes']}")
        for verdict, count in sorted(dispatch["verdicts"].items()):
            lines.append(f"  complete:{verdict:<9} {count}")
        for reason, count in sorted(dispatch["requeues"].items()):
            lines.append(f"  requeue:{reason:<10} {count}")
        if dispatch["corrupt_units"]:
            lines.append(f"  corrupt units     {dispatch['corrupt_units']}")
        for label, stats in (
            ("lease latency", dispatch["lease_latency_s"]),
            ("execute wall", dispatch["execute_wall_s"]),
        ):
            if stats:
                lines.append(
                    f"  {label:<14} p50 {stats['p50']:.3f}s  "
                    f"p95 {stats['p95']:.3f}s  max {stats['max']:.3f}s  "
                    f"(n={stats['count']})"
                )
        quorum = dispatch.get("quorum")
        if quorum:
            lines.append("  quorum:")
            for outcome, count in sorted(quorum["outcomes"].items()):
                lines.append(f"    {outcome:<15} {count}")
            if quorum["poisoned"]:
                lines.append(f"    poisoned        {quorum['poisoned']}")
            for worker, score in list(quorum["suspicion"].items())[:5]:
                lines.append(f"    suspect {worker:<15} suspicion={score}")

    sweeps = summary.get("sweeps")
    if sweeps:
        lines.append("")
        lines.append("sweep cells (experiment/kernel/backend):")
        for s in sweeps:
            cell = s["cell_wall_s"]
            detail = (
                f"cells={cell['count']} p50={cell['p50']:.4f}s "
                f"p95={cell['p95']:.4f}s"
                if cell else "no per-cell events"
            )
            lines.append(
                f"  {s['experiment']:>4} {s['kernel']:<10} {s['backend']:<10} "
                f"runs={s['runs']} wall={s['run_wall_s']:.3f}s  {detail}"
            )

    pool = summary.get("pool")
    if pool:
        lines.append("")
        lines.append("worker pool:")
        lines.append(
            f"  pool spawns={pool['spawns']} reuses={pool['reuses']} "
            f"broken={pool['broken']}"
        )
        for key, count in sorted(pool.get("degrades", {}).items()):
            lines.append(f"  degrade {key:<20} {count}")

    mem = summary.get("mem")
    if mem:
        lines.append("")
        lines.extend(_mem_lines(mem))

    serve = summary.get("serve")
    if serve:
        lines.append("")
        lines.append("serving layer (serve.request):")
        qps = f"{serve['qps']:.1f} QPS" if serve["qps"] is not None else "QPS n/a"
        lines.append(f"  requests          {serve['requests']} ({qps})")
        lat = serve["latency_s"]
        if lat:
            lines.append(
                f"  latency           p50 {lat['p50'] * 1e3:.2f}ms  "
                f"p95 {lat['p95'] * 1e3:.2f}ms  p99 {lat['p99'] * 1e3:.2f}ms  "
                f"max {lat['max'] * 1e3:.2f}ms"
            )
        for outcome, count in sorted(serve["outcomes"].items()):
            lines.append(f"  outcome:{outcome:<10} {count}")
        for epoch, stats in serve["epochs"].items():
            lines.append(
                f"  epoch {epoch:<3} requests={stats['count']} "
                f"p50={stats['p50'] * 1e3:.2f}ms p99={stats['p99'] * 1e3:.2f}ms"
            )
        publishes = serve.get("publishes")
        if publishes:
            wall = publishes["wall_s"]
            lines.append(
                f"  publishes         {publishes['count']} "
                f"(epochs {publishes['epochs']}) "
                f"build p50 {wall['p50']:.3f}s max {wall['max']:.3f}s"
            )
        for clip in serve.get("churn_clips", ()):
            lines.append(
                f"  churn clipped     {clip['model']} rate={clip['rate']} "
                f"-> cap={clip['cap']}"
            )

    bench = summary.get("bench")
    if bench:
        lines.append("")
        lines.append("bench ledger (from bench.row events):")
        for row in bench["rows"]:
            line = (
                f"  {row['experiment']:>11} n={row['n']:<6} "
                f"{row['backend']:<10} {row['wall_s']:.4f}s "
                f"cells={row['cells']} trials={row['trials']}"
            )
            if row.get("peak_rss_mb") is not None:
                line += f" peak={row['peak_rss_mb']:.1f}MB"
            lines.append(line)
        for s in bench["speedups"]:
            lines.append(
                f"  speedup {s['experiment']:>4} n={s['n']:<6} "
                f"{s['speedup']:.2f}x "
                f"({s['wall_serial_s']:.3f}s / {s['wall_vectorized_s']:.3f}s)"
            )
        if bench["calibration_wall_s"] is not None:
            lines.append(
                f"  host calibration {bench['calibration_wall_s']:.4f}s"
            )
    return "\n".join(lines)


def _mem_lines(mem: dict) -> list[str]:
    """The memory section's text lines (shared by both report views)."""
    lines = ["memory (mem.peak):"]
    if mem.get("peak_rss_mb") is not None:
        lines.append(
            f"  peak RSS          {mem['peak_rss_mb']:.1f}MB "
            f"({mem['samples']} sample(s))"
        )
    for phase, stats in mem.get("phases", {}).items():
        lines.append(
            f"  phase {phase:<18} samples={stats['samples']} "
            f"p50={stats['p50']:.1f}MB max={stats['max']:.1f}MB"
        )
    return lines


def render_mem_report(summary: dict) -> str:
    """Just the memory section (``repro telemetry report --mem``).

    The peak-RSS high-water mark and per-phase sample trends from the
    chunked hot paths, without the full multi-layer report.
    """
    mem = summary.get("mem")
    if not mem:
        return "no memory events (mem.peak) in this stream"
    return "\n".join(_mem_lines(mem))


def check_bench(events: list[dict], bench_path) -> list[str]:
    """Problems reconciling the event stream against a BENCH JSON file.

    Every row reconstructible from the events must appear **byte-equal**
    in the file (the file may hold more — it merges rows across runs and
    writers).  An empty list means the stream reproduces its slice of the
    ledger exactly.
    """
    stored = {
        tuple(r.get(k) for k in _ROW_KEY): r for r in read_bench_rows(bench_path)
    }
    problems = []
    rows = bench_rows_from_events(events)
    if not rows:
        return [f"no bench.row events to check against {bench_path}"]
    for row in rows:
        key = tuple(row[k] for k in _ROW_KEY)
        ref = stored.get(key)
        if ref is None:
            problems.append(
                f"row {key} is in the event stream but not in {bench_path}"
            )
        elif ref != row:
            problems.append(
                f"row {key} differs: events={row} file={ref}"
            )
    return problems
