#!/usr/bin/env python3
"""CI smoke: the live serving layer answers exactly like the offline oracle.

The ISSUE-10 acceptance drill, end to end through the real CLI surface:

1. launch ``python -m repro serve run`` as a subprocess (its own event
   loop, its own telemetry file) and parse the bound port off the
   ``serving on HOST:PORT`` line;
2. drive >= ``--requests`` concurrent closed-loop queries at it while its
   simulator advances >= ``--epochs`` live transitions under
   ``UniformChurn`` (``--min-epoch`` keeps the generator issuing until
   traffic has demonstrably overlapped the last transition);
3. byte-compare **every** response line against the offline oracle
   replay (:func:`repro.serve.oracle.verify_responses`) — one diverging
   byte fails the job;
4. render ``repro telemetry report`` over the service's event stream and
   require the serving section's QPS and p50/p99 latency lines, and a
   ``serve.publish`` span row counting exactly ``--epochs`` publishes.

The serving layer's speed is gated elsewhere: CI's ``paired-gate`` job
runs ``benchmarks/bench_serve.py --verify`` on the base and head
commits.  Exercised by the ``smoke-serve`` job in
``.github/workflows/ci.yml``; also handy locally::

    PYTHONPATH=src python tools/smoke_serve.py
"""

from __future__ import annotations

import argparse
import asyncio
import os
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent


def _run_cli(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, *argv], env=env, cwd=REPO, text=True, **kwargs
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=256)
    ap.add_argument("--requests", type=int, default=500,
                    help="minimum concurrent queries the drill must answer")
    ap.add_argument("--concurrency", type=int, default=16)
    ap.add_argument("--epochs", type=int, default=3,
                    help="live transitions the simulator must advance")
    ap.add_argument("--churn", type=float, default=0.05)
    ap.add_argument("--epoch-period", type=float, default=0.4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", default="benchmarks/output",
                    help="directory of the service's telemetry file")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(REPO / "src"))
    from repro.serve import ServeConfig, run_load, send_stop, verify_responses

    out_dir = REPO / args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    telemetry_path = out_dir / "serve_telemetry.jsonl"
    telemetry_path.unlink(missing_ok=True)

    config = ServeConfig(
        n=args.n, seed=args.seed, epochs=args.epochs,
        churn_rate=args.churn, epoch_period_s=args.epoch_period,
    )
    failures: list[str] = []

    # 1. the service, exactly as an operator would start it
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "--seed", str(args.seed),
         "serve", "run", "-n", str(args.n), "--epochs", str(args.epochs),
         "--churn", str(args.churn), "--epoch-period", str(args.epoch_period),
         "--telemetry", str(telemetry_path)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=REPO,
    )
    try:
        banner = proc.stdout.readline()
        match = re.search(r"serving on ([\d.]+):(\d+)", banner)
        if not match:
            print(f"smoke-serve: unparseable banner {banner!r}",
                  file=sys.stderr)
            return 1
        host, port = match.group(1), int(match.group(2))
        print(f"smoke-serve: {banner.strip()}")

        # 2. concurrent load overlapping every live transition
        report = asyncio.run(run_load(
            host, port, requests=args.requests, concurrency=args.concurrency,
            mode="closed", seed=args.seed, min_epoch=args.epochs,
            timeout_s=120.0,
        ))
        for line in report.summary_lines():
            print(f"smoke-serve: {line}")
        if report.requests < args.requests:
            failures.append(
                f"only {report.requests} responses < {args.requests} required"
            )
        if max(report.epochs, default=-1) < args.epochs:
            failures.append(
                f"traffic never reached epoch {args.epochs} "
                f"(saw {sorted(report.epochs)})"
            )

        # 3. every response byte-identical to the offline replay
        problems = verify_responses(config, report.responses)
        if problems:
            failures.extend(problems)
        else:
            print(
                f"smoke-serve: all {report.requests} responses byte-identical "
                "to the offline oracle"
            )
        asyncio.run(send_stop(host, port))
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    # 4. the operator view over the recorded stream
    result = _run_cli(
        ["-m", "repro", "telemetry", "report", "--events",
         str(telemetry_path)],
        capture_output=True,
    )
    print(result.stdout, end="")
    if result.returncode != 0:
        failures.append(f"telemetry report failed: {result.stderr.strip()}")
    else:
        for needle in ("serving layer", "QPS", "p50", "p99"):
            if needle not in result.stdout:
                failures.append(f"telemetry report lacks {needle!r}")
        row = re.search(r"^\s+serve\.publish\s+n=(\d+)", result.stdout, re.M)
        if row is None or int(row.group(1)) != args.epochs:
            failures.append(
                f"telemetry report's serve.publish span row is "
                f"{row.group(0).strip() if row else 'missing'}; "
                f"want n={args.epochs}"
            )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("serve smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
