"""The serve workload: the real ``repro serve run`` CLI under load.

The server holds epoch 0 and publishes no further epochs, so only the
request path works.  One session is: start the server, a closed-loop
warm-up, the ``sat`` phase (closed loop, saturating) and the ``rate``
phase (open loop, Poisson), stop the server with the ``stop`` op, then
check every reply.  Replies must echo the source and target they were
sent and byte-match ``repro.serve.verify_responses``, which rebuilds the
epoch offline.
"""

from __future__ import annotations

import asyncio
import json
import re
import socket
import subprocess
import sys
import time
from pathlib import Path

import loadgen
from batch import hwm_mb
from stats import percentile

N = 4096
CONNECTIONS = 2
DEPTH = 16              # requests each connection keeps in flight in `sat`
RATE = 1000.0           # open-loop arrivals per second in `rate`
# warm-up : sat : rate shares of a run's seconds
PHASE_SHARES = (3, 10, 12)

_BANNER = re.compile(r"serving on ([\d.]+):(\d+)")
TRACED_SERVER = Path(__file__).with_name("traced_server.py")


def last_line(log: Path) -> str:
    """The last line a child process wrote to its log, usually the error."""
    lines = log.read_text(errors="replace").strip().splitlines()
    return f"{lines[-1] if lines else ''} (full log: {log})"


class Server:
    """One ``python -m repro serve run`` process."""

    def __init__(self, workload: str, seed: int, env: dict, log: Path,
                 trace_out: Path | None = None):
        cli = ["--seed", str(seed), "serve", "run", "-n", str(N),
               "--epochs", "0", "--churn", "0"]
        if trace_out is None:
            argv = [sys.executable, "-m", "repro", *cli]
        else:
            argv = [sys.executable, str(TRACED_SERVER), workload,
                    str(trace_out), *cli]
        t0 = time.perf_counter()
        with open(log, "ab") as err:
            self.proc = subprocess.Popen(
                argv, env=env, stdout=subprocess.PIPE, stderr=err,
                stdin=subprocess.DEVNULL,
            )
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        self.ready_s = time.perf_counter() - t0
        match = _BANNER.search(line)
        if match is None:
            self.kill()
            raise RuntimeError(f"server did not start: {last_line(log)}")
        self.host, self.port = match.group(1), int(match.group(2))
        self.peak_rss_mb = 0.0

    def stop(self, timeout: float = 30.0) -> None:
        """Read the peak RSS, send the stop op, then reap the process."""
        try:
            self.peak_rss_mb = hwm_mb(self.proc.pid)
        except OSError:
            pass  # already gone; reaping below reports how it ended
        try:
            with socket.create_connection((self.host, self.port), timeout=5) as s:
                s.sendall(b'{"op":"stop"}\n')
                s.recv(4096)
        except OSError:
            pass
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError(
                f"server ignored the stop op for {timeout:.0f}s") from None
        self.proc.stdout.close()

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def phase_seconds(seconds: float) -> tuple[float, float, float]:
    total = sum(PHASE_SHARES)
    return tuple(seconds * share / total for share in PHASE_SHARES)


async def _drive(host: str, port: int, seed: int,
                 seconds: float) -> list[loadgen.Phase]:
    warm_s, sat_s, rate_s = phase_seconds(seconds)
    conns = await loadgen.connect(host, port, CONNECTIONS)
    try:
        warm = await loadgen.closed_loop(
            conns, loadgen.Queries(seed, 1, N), "warm", warm_s, DEPTH)
        sat = await loadgen.closed_loop(
            conns, loadgen.Queries(seed, 2, N), "sat", sat_s, DEPTH)
        rate = await loadgen.open_loop(
            conns, loadgen.Queries(seed, 3, N), "rate",
            loadgen.arrival_schedule(seed, RATE, rate_s))
    finally:
        await loadgen.close(conns)
    if any(c.unexpected for c in conns):
        raise RuntimeError("the server sent replies nobody asked for")
    return [warm, sat, rate]


def check_replies(seed: int, phases: list[loadgen.Phase]
                  ) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` over every reply of a session.

    Errors and unanswered requests are failures; a reply that echoes the
    wrong query or differs from the offline oracle is a problem.
    """
    from repro.serve import ServeConfig, verify_responses

    attempted = failed = 0
    lines, problems = [], []
    for phase in phases:
        attempted += len(phase.sources)
        for i, raw in enumerate(phase.lines):
            if raw is None:
                failed += 1
                continue
            try:
                answer = json.loads(raw)
            except ValueError:
                problems.append(f"{phase.name} reply {i} is not JSON: {raw[:80]!r}")
                continue
            if "error" in answer:
                failed += 1
                continue
            if (answer.get("source"), answer.get("target")) != (
                phase.sources[i], phase.targets[i]
            ):
                problems.append(
                    f"{phase.name} reply {i} answers "
                    f"({answer.get('source')}, {answer.get('target')}) but was "
                    f"asked ({phase.sources[i]}, {phase.targets[i]})"
                )
            lines.append(raw.decode("utf-8"))
    config = ServeConfig(n=N, seed=seed, epochs=0, churn_rate=0.0)
    if lines:
        problems += verify_responses(config, lines)
    return attempted, failed, problems


def session(workload: str, seed: int, seconds: float, env: dict, log: Path,
            server: Server | None = None,
            trace_out: Path | None = None) -> dict:
    """One measured session against ``server`` (started here if None)."""
    if server is None:
        server = Server(workload, seed, env, log, trace_out)
    try:
        phases = asyncio.run(_drive(server.host, server.port, seed, seconds))
    finally:
        server.stop()
    warm, sat, rate = phases
    attempted, failed, problems = check_replies(seed, phases)
    if server.proc.returncode != 0:
        problems.append(f"server exited {server.proc.returncode}")
    latencies = rate.latencies_ms() or [0.0]
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "late_p99_ms": rate.late_p99_ms(),
        "sat_qps": sat.throughput(),
        "p50_ms": percentile(latencies, 50),
        "p90_ms": percentile(latencies, 90),
        "p99_ms": percentile(latencies, 99),
        "max_ms": max(latencies),
        "rate_samples": len(rate.answered),
        "peak_rss_mb": server.peak_rss_mb,
    }
