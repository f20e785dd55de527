#!/usr/bin/env python3
"""End-to-end benchmark of the repository, with a traced layer breakdown.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --workload epoch-4k --seed 1 --seconds 40 --trace 0
    python3 benchmarks/e2e/run.py --seed 1          # every workload in turn

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``epoch-4k``  — epoch transitions (``step()`` + ``build_snapshot()``)
  of the serve-shaped simulator at n = 4096;
* ``static-1m`` — the E2-shaped static pipeline at n = 2^20;
* ``serve-frozen`` (not in ``BENCHMARK.json``, see ``UNGATED``) —
  ``python -m repro serve run`` at n = 4096, with no epochs publishing,
  under pipelined closed- and open-loop load.

Each workload runs in fresh child processes, so ``setup_s`` (the median
spawn-to-ready time of five spawns after a discarded one) covers
imports and the initial state.  Set-up times and the batch workloads'
operation times are scaled to a reference host speed measured around
each of them (:mod:`hostspeed`).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` measures once untraced and once with the layers'
entry points wrapped (:mod:`layers`), checks both produce the same
outputs, and prints the per-layer metrics.  The last line of output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; every
run is also appended to ``benchmarks/output/e2e/result.json`` for
``compare.py``.  Exit status 1 means a wrong answer, a failed check or a
stale trace map.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import layers
import serving
from batch import WORKLOADS as BATCH
from loadgen import MAX_LATE_P99_MS
from serving import last_line
from stats import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = ROOT / "benchmarks" / "output" / "e2e"
SETUP_SPAWNS = 6        # the first warms the file cache and is discarded
# Runs, checks and traces like the others but is not in BENCHMARK.json:
# on a shared host its spread between runs is wider than any bound (README).
UNGATED = ("serve-frozen",)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def program_env() -> dict:
    """Environment for every child: this checkout's ``src`` first."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no program source under {src}")
    env = dict(os.environ)
    env.pop("REPRO_TELEMETRY", None)   # no telemetry sink inside the timing
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(src))
    return env


# -- batch workloads ---------------------------------------------------------


class Child:
    """One ``batch.py`` process, spawned and timed to ready."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: int,
                 env: dict, log: Path, count: int | None = None):
        argv = [sys.executable, str(HERE / "batch.py"), workload, str(seed),
                str(seconds), str(trace)] + ([str(count)] if count else [])
        self.log = log
        t0 = time.perf_counter()
        with open(log, "ab") as err:
            self.proc = subprocess.Popen(
                argv, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=err,
            )
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - t0
        if not line.startswith(b'{"ready"'):
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"{workload} child did not start: "
                               f"{last_line(log)}")

    def finish(self, command: str) -> dict | None:
        """Send ``run`` or ``exit``; returns the result of ``run``."""
        self.proc.stdin.write(command.encode() + b"\n")
        self.proc.stdin.close()
        out = self.proc.stdout.read()
        self.proc.stdout.close()
        if self.proc.wait() != 0:
            raise RuntimeError(
                f"child exited {self.proc.returncode}: {last_line(self.log)}"
            )
        return json.loads(out.splitlines()[-1]) if command == "run" else None


def spawn_timed(start, discard):
    """Spawn ``SETUP_SPAWNS`` times; return (setup times, last spawn).

    ``start()`` returns a spawn with a ``ready_s``; ``discard(spawn)``
    ends every spawn but the last.  The setup times are the median
    ready time, scaled to reference speed (``setup_s``) and as measured
    (``raw_setup_s``); the host speed is taken just before each spawn
    and just after it is ready, while it waits.
    """
    ready, scaled, last = [], [], None
    for i in range(SETUP_SPAWNS):
        if last is not None:
            discard(last)
        before = hostspeed.reference_ms()
        last = start()
        if i:
            ready.append(last.ready_s)
            scaled += hostspeed.scale([last.ready_s],
                                      [before, hostspeed.reference_ms()])
    return {"setup_s": percentile(scaled, 50),
            "raw_setup_s": percentile(ready, 50)}, last


def batch_e2e(result: dict) -> dict:
    """Operation walls scaled to the reference host's speed."""
    scaled = result["scaled"]
    return {"p50_ms": statistics.median(scaled) * 1e3,
            "ops_per_s": len(scaled) / sum(scaled)}


def batch_diagnostics(result: dict) -> dict:
    """The unscaled walls and the host speed they were scaled by."""
    return {"raw_p50_ms": statistics.median(result["walls"]) * 1e3,
            "ref_ms": statistics.median(result["refs"]),
            "walls": result["walls"], "refs": result["refs"]}


def run_batch(workload: str, seed: int, seconds: float, trace: int,
              env: dict, log: Path) -> dict:
    def start():
        return Child(workload, seed, seconds, 0, env, log)

    if not trace:
        setup, child = spawn_timed(start, lambda c: c.finish("exit"))
        result = child.finish("run")
        return {
            "metrics": {"setup_s": setup["setup_s"], **batch_e2e(result),
                        "peak_rss_mb": result["peak_rss_mb"]},
            "attempted": len(result["walls"]), "failed": 0,
            "problems": result["problems"],
            "diagnostics": {**setup, **batch_diagnostics(result)},
        }
    plain = start().finish("run")
    count = len(plain["walls"])
    traced = Child(workload, seed, seconds, 1, env, log, count).finish("run")
    spans = layers.Spans(traced["trace"])
    problems = plain["problems"] + traced["problems"]
    if traced["digests"] != plain["digests"]:
        problems.append("traced and untraced runs produced different outputs")
    problems += layers.guard(workload, spans)
    if workload == "epoch-4k":
        metrics = layers.epoch_layers(spans, count)
    else:
        metrics = layers.static_layers(spans, count)
    untraced, with_trace = batch_e2e(plain), batch_e2e(traced)
    metrics["trace.overhead"] = with_trace["p50_ms"] / untraced["p50_ms"] - 1
    metrics["trace.attributed"] = spans.attributed_share(
        layers.ROOTS[workload])
    metrics["host.ref_ms"] = statistics.median(traced["refs"])
    return {"metrics": metrics, "attempted": 2 * count, "failed": 0,
            "problems": problems,
            "diagnostics": {"untraced": {**untraced,
                                         **batch_diagnostics(plain)},
                            "traced": {**with_trace,
                                       **batch_diagnostics(traced)},
                            "trace": traced["trace"]}}


# -- serve workloads ---------------------------------------------------------


def run_serve(workload: str, seed: int, seconds: float, trace: int,
              env: dict, log: Path) -> dict:
    if not trace:
        setup, server = spawn_timed(
            lambda: serving.Server(workload, seed, env, log),
            serving.Server.stop)
        s = serving.session(workload, seed, seconds, env, log, server=server)
        metrics = {"setup_s": setup["setup_s"], "p50_ms": s["p50_ms"],
                   "ops_per_s": s["sat_qps"], "peak_rss_mb": s["peak_rss_mb"]}
        return {"metrics": metrics, "attempted": s["attempted"],
                "failed": s["failed"], "problems": s["problems"],
                "valid": s["late_p99_ms"] <= MAX_LATE_P99_MS,
                "diagnostics": {**setup, **s}}
    plain = serving.session(workload, seed, seconds, env, log)
    trace_out = OUT_DIR / f"spans-{workload}.json"
    traced = serving.session(workload, seed, seconds, env, log,
                             trace_out=trace_out)
    with open(trace_out, encoding="utf-8") as fh:
        summary = json.load(fh)
    spans = layers.Spans(summary)
    metrics = layers.serve_layers(spans, traced["p50_ms"])
    metrics.update({
        "serve.p90_ms": plain["p90_ms"],
        "serve.p99_ms": plain["p99_ms"],
        "serve.max_ms": plain["max_ms"],
        "loadgen.late_p99_ms": plain["late_p99_ms"],
        "loadgen.sent": float(plain["attempted"]),
        "trace.overhead": plain["sat_qps"] / traced["sat_qps"] - 1,
    })
    return {"metrics": metrics,
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "problems": (plain["problems"] + traced["problems"]
                         + layers.guard(workload, spans)),
            "valid": max(plain["late_p99_ms"], traced["late_p99_ms"])
            <= MAX_LATE_P99_MS,
            "diagnostics": {"untraced": plain, "traced": traced,
                            "trace": summary}}


# -- entry point -------------------------------------------------------------


def run_one(workload: str, seed: int, seconds: float, trace: int,
            spec: dict, env: dict) -> int:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    log = OUT_DIR / f"{workload}.log"
    runner = run_batch if workload in BATCH else run_serve
    out = runner(workload, seed, seconds, trace, env, log)

    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(out["metrics"].get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in declared}
    problems = out["problems"]
    valid = out.get("valid", True)
    print(f"{workload} (seed {seed}, {seconds:g}s, trace {trace})")
    for name, m in metrics.items():
        if name in out["metrics"]:  # layers this workload does not run read 0
            print(f"  {name:<26} {m['value']:>14.6g} {m['unit']}")
    if not valid:
        print(f"  invalid run: generator lateness p99 over {MAX_LATE_P99_MS} ms")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "valid": valid, "correct": not problems,
              "attempted": out["attempted"], "failed": out["failed"],
              "metrics": metrics, "problems": problems,
              "diagnostics": out.get("diagnostics", {})}
    _append_result(record)
    print(json.dumps({"correct": not problems, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}),
          flush=True)
    return 1 if problems else 0


def _append_result(record: dict) -> None:
    path = OUT_DIR / "result.json"
    try:
        with open(path, encoding="utf-8") as fh:
            runs = json.load(fh)["runs"]
    except FileNotFoundError:
        runs = []
    runs.append(record)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"runs": runs}, fh)
    os.replace(tmp, path)  # a run killed mid-write leaves the old file whole


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]] + list(UNGATED)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, default=None,
                    help="one workload (default: all, in order)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    env = program_env()
    status = 0
    for workload in [args.workload] if args.workload else names:
        status |= run_one(workload, args.seed, args.seconds, args.trace,
                          spec, env)
    return status


if __name__ == "__main__":
    sys.exit(main())
