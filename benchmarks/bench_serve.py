#!/usr/bin/env python3
"""Bench serve — the asyncio serving layer's efficiency, offline vs served.

One measurement point, two walls over the same queries:

* ``offline`` — the same per-query code path the service runs (snapshot
  ``answer`` + :func:`~repro.serve.snapshot.canonical_response`) driven
  as a plain in-process loop over replayed epoch snapshots.  This is the
  query kernel's floor: no sockets, no event loop, no concurrency.
* ``closed`` — the same number of queries pushed through the real thing:
  a listening :class:`~repro.serve.service.RoutingService` whose epochs
  advance live under uniform churn, driven by the closed-loop generator
  at ``--concurrency``.

The offline/closed speedup is the serving layer's efficiency — both
sides run on the same host in the same process, so machine speed
divides out.  Each run appends it as one JSON line to ``--out``
(default ``benchmarks/output/speedups.jsonl``): ``{"kind": "serve",
"point": "SERVE n=256", "speedup": ...}``.  CI's ``paired-gate`` job
runs this benchmark on the base and head commits in alternating pairs,
and ``tools/judge_speedups.py`` fails it when the head's median speedup
is more than 25% below the base's: the asyncio/TCP layer itself got
relatively slower.  ``REPRO_TELEMETRY=<path>`` records the run's
``serve.request`` events and ``serve.publish`` spans.

With ``--verify`` every response line from the closed-loop run is
byte-compared against the offline oracle replay before the speedup is
recorded — a bench run can never launder wrong answers into the gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py              # default point
    PYTHONPATH=src python benchmarks/bench_serve.py \\
        --n 128 --requests 500 --verify
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import sys
import time


def _offline_wall(config, snapshots, queries) -> float:
    """Answer ``queries`` round-robin across the replayed snapshots."""
    from repro.serve import canonical_response

    epochs = sorted(snapshots)
    t0 = time.perf_counter()
    for i, (source, target) in enumerate(queries):
        snap = snapshots[epochs[i % len(epochs)]]
        canonical_response(snap.answer(source, target))
    return time.perf_counter() - t0


async def _closed_loop(config, requests: int, concurrency: int):
    """One live service + one closed-loop drill; returns the LoadReport."""
    from repro.serve import RoutingService, run_load, send_stop

    service = RoutingService(config)
    ready = asyncio.Event()
    task = asyncio.create_task(service.run(ready))
    await asyncio.wait_for(ready.wait(), timeout=30)
    try:
        return await run_load(
            service.bound_host, service.bound_port,
            requests=requests, concurrency=concurrency, mode="closed",
            seed=config.seed,
        )
    finally:
        if not task.done():
            await send_stop(service.bound_host, service.bound_port)
            await asyncio.wait_for(task, timeout=30)


def run_point(args) -> tuple[dict, int]:
    """The speedup line for one ``n``; returns (line, problem count)."""
    import numpy as np

    from repro.serve import ServeConfig, replay_snapshots, verify_responses

    config = ServeConfig(
        n=args.n, epochs=args.epochs, churn_rate=args.churn,
        probes=args.probes, epoch_period_s=args.epoch_period, seed=args.seed,
    )
    snapshots = replay_snapshots(config, config.epochs)
    rng = np.random.default_rng(args.seed + 1)
    queries = [
        (int(rng.integers(0, config.n)), float(rng.random()))
        for _ in range(args.requests)
    ]

    offline_wall = _offline_wall(config, snapshots, queries)
    report = asyncio.run(_closed_loop(config, args.requests, args.concurrency))

    problems: list[str] = []
    if args.verify:
        problems = verify_responses(config, report.responses, snapshots)
        for problem in problems:
            print(f"bench-serve: {problem}", file=sys.stderr)

    overhead = report.wall_s / offline_wall if offline_wall > 0 else float("inf")
    print(
        f"[serve] n={config.n:<6} offline {offline_wall:.3f}s vs closed "
        f"{report.wall_s:.3f}s over {report.requests} queries "
        f"({overhead:.1f}x layer overhead, {report.qps:.0f} QPS, "
        f"p99 {report.latency_percentile(0.99) * 1e3:.2f}ms)"
    )
    line = dict(kind="serve", point=f"SERVE n={config.n}",
                speedup=round(offline_wall / report.wall_s, 4))
    return line, len(problems)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="benchmarks/output/speedups.jsonl",
                    help="JSON lines file the speedup is appended to")
    ap.add_argument("--n", type=int, default=256,
                    help="population size for the measurement point")
    ap.add_argument("--requests", type=int, default=500,
                    help="queries per side (offline loop and closed-loop)")
    ap.add_argument("--concurrency", type=int, default=16,
                    help="closed-loop connections")
    ap.add_argument("--epochs", type=int, default=3,
                    help="live epoch transitions during the closed-loop run")
    ap.add_argument("--churn", type=float, default=0.05,
                    help="UniformChurn departure rate per epoch")
    ap.add_argument("--probes", type=int, default=500,
                    help="reclassification probes per transition")
    ap.add_argument("--epoch-period", type=float, default=0.2,
                    help="seconds between live epoch publications")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--verify", action="store_true",
                    help="byte-compare every closed-loop response against "
                         "the offline oracle; any divergence fails the run "
                         "and records no speedup")
    args = ap.parse_args(argv)

    line, problems = run_point(args)
    if problems:
        print(
            f"bench-serve: {problems} response(s) diverged from the oracle",
            file=sys.stderr,
        )
        return 1
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(line) + "\n")
    print(f"bench-serve: appended the speedup to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
