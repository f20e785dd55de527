"""Summarise a telemetry event stream (``repro telemetry report``).

One jsonl file from :mod:`repro.telemetry` can hold events from every
layer at once — a dispatch spool's unit lifecycle, the worker pool,
served queries and the ``span`` events of every timed phase.  This
module turns such a stream into the operator-facing views:

* :func:`summarize_events` — the structured summary (event counts, the
  dispatch funnel with lease-latency percentiles, the worker pool, the
  serving layer's throughput/latency view — QPS, p50/p95/p99, per-epoch
  breakdown, churn clips — and one row per span phase: count, wall
  p50/p95/max and the largest peak RSS);
* :func:`render_report` — the same as text tables.

Readers are permissive by the telemetry contract: unknown event types
count toward the totals and are otherwise ignored, never an error.
"""

from __future__ import annotations

from collections import Counter

__all__ = [
    "render_report",
    "summarize_events",
]


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


def summarize_events(events: list[dict]) -> dict:
    """The structured summary every view renders from."""
    by_type: dict[str, list[dict]] = {}
    for event in events:
        by_type.setdefault(str(event.get("type")), []).append(event)

    summary: dict = {
        "events": len(events),
        "types": {t: len(es) for t, es in sorted(by_type.items())},
    }

    # -- spans: one row per dotted phase, parents before their children ----
    spans: dict[str, list[dict]] = {}
    for e in by_type.get("span", []):
        spans.setdefault(str(e.get("phase", "?")), []).append(e)
    if spans:
        summary["spans"] = {
            phase: dict(
                _stats(_walls(es)) or {"count": 0},
                peak_rss_mb=max(_walls(es, "peak_rss_mb"), default=None),
            )
            for phase, es in sorted(spans.items(), key=lambda kv: kv[0].split("."))
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
            "executes": len(spans.get("dispatch.execute", [])),
            "verdicts": dict(Counter(
                str(e.get("verdict", "?")) for e in completes
            )),
            "requeues": dict(requeues),
            "corrupt_units": len(by_type.get("dispatch.corrupt_unit", [])),
            "lease_latency_s": _stats(_walls(completes, "lease_latency_s")),
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

    # -- serving layer -----------------------------------------------------
    serve_requests = by_type.get("serve.request", [])
    clips = by_type.get("churn.clipped", [])
    if serve_requests or clips:
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
        stats = dispatch["lease_latency_s"]
        if stats:
            lines.append(
                f"  lease latency  p50 {stats['p50']:.3f}s  "
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
        for clip in serve.get("churn_clips", ()):
            lines.append(
                f"  churn clipped     {clip['model']} rate={clip['rate']} "
                f"-> cap={clip['cap']}"
            )

    spans = summary.get("spans")
    if spans:
        lines.append("")
        lines.append("spans (phase: count, wall p50/p95/max, peak RSS):")
        for phase, row in spans.items():
            text = f"  {phase:<22} n={row['count']:<5}"
            if row["count"]:
                text += (
                    f" p50 {row['p50']:.4f}s  p95 {row['p95']:.4f}s  "
                    f"max {row['max']:.4f}s"
                )
            if row["peak_rss_mb"] is not None:
                text += f"  peak {row['peak_rss_mb']:.1f}MB"
            lines.append(text)

    return "\n".join(lines)

