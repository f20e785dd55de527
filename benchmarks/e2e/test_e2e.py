"""Unit tests for the benchmark's own machinery.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import threading
import time

import pytest

import batch
import compare
import hostspeed
import layers
import loadgen
from spans import Tracer, resolve
from stats import percentile, quartiles, relative_spread


# -- percentiles -------------------------------------------------------------


@pytest.mark.parametrize("q, expected", [
    (5, 15), (30, 20), (40, 20), (50, 35), (99, 50), (100, 50),
])
def test_nearest_rank_percentile(q, expected):
    assert percentile([50, 15, 40, 20, 35], q) == expected


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
    q1, med, q3 = quartiles(values)
    assert [q1, med, q3] == statistics.quantiles(values, n=4)
    assert relative_spread(values) == pytest.approx((q3 - q1) / med)


# -- host speed --------------------------------------------------------------


def test_scale_divides_each_wall_by_the_refs_around_it():
    ref = hostspeed.REF_MS
    walls = [1.0, 1.0, 2.0]
    refs = [ref, ref, 2 * ref, 2 * ref]   # the host halves its speed
    assert hostspeed.scale(walls, refs) == pytest.approx([1.0, 2 / 3, 1.0])
    with pytest.raises(ValueError, match="3 walls need 4 refs"):
        hostspeed.scale(walls, refs[:3])


def test_reference_kernel_time_is_positive():
    assert 0.0 < hostspeed.reference_ms() < 1e3


class TwoStages:
    def op(self, lap):
        time.sleep(0.01)
        lap()
        time.sleep(0.01)
        return "digest"


def test_measure_takes_the_host_speed_around_every_stage():
    out = batch.measure(TwoStages(), "op", 0.0, 3, None)
    assert out["digests"] == ["digest"] * 3
    assert len(out["refs"]) == 1 + 2 * 3
    assert all(w >= 0.02 for w in out["walls"])
    assert len(out["scaled"]) == 3 and all(s > 0 for s in out["scaled"])


def test_peak_leaves_the_reference_kernels_array_out():
    peak = batch.Peak()
    peak.reference_ms()
    settled = batch.hwm_mb()             # the mark, reset after the call
    peak.reference_ms()                  # maps and frees 32 MB
    assert batch.hwm_mb() < settled + 8
    assert peak.mb() >= settled


# -- spans -------------------------------------------------------------------


def test_self_time_with_nested_spans_on_two_threads():
    """Spans interleaved across threads nest only within their own thread."""
    local = threading.local()
    tracer = Tracer(clock=lambda: local.now, cpu_clock=lambda: 0.0)
    step = threading.Barrier(2)

    def at(now, action, *args):
        local.now = now
        action(*args)

    def thread_a():
        at(0.0, tracer.enter, "outer")
        step.wait()
        at(1.0, tracer.enter, "inner")
        step.wait()                      # B opens its span inside A's inner
        step.wait()
        at(4.0, tracer.exit)             # inner: 3 s
        at(10.0, tracer.exit)            # outer: 10 s, 7 s self

    def thread_b():
        step.wait()
        step.wait()
        at(20.0, tracer.enter, "outer")
        step.wait()
        at(25.0, tracer.exit)            # a root of its own: 5 s, all self

    threads = [threading.Thread(target=t) for t in (thread_a, thread_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)

    rows = {tuple(r["path"]): r for r in tracer.summary()["spans"]}
    assert set(rows) == {("outer",), ("outer", "inner")}
    assert rows[("outer",)]["calls"] == 2
    assert rows[("outer",)]["wall_s"] == pytest.approx(15.0)
    assert rows[("outer",)]["self_s"] == pytest.approx(12.0)
    assert rows[("outer", "inner")]["self_s"] == pytest.approx(3.0)


class Kernel:
    def run(self, x):
        return [x] * x


def test_install_wraps_under_the_lookup_name_and_uninstall_restores():
    original = Kernel.__dict__["run"]
    tracer = Tracer()
    tracer.install([(f"{__name__}.Kernel.run", "kernel",
                     lambda result, args, kwargs: {"items": len(result)})])
    try:
        with tracer.span("root"):
            assert Kernel().run(3) == [3, 3, 3]
            Kernel().run(2)
    finally:
        tracer.uninstall()
    assert Kernel.__dict__["run"] is original
    summary = tracer.summary()
    rows = {tuple(r["path"]): r for r in summary["spans"]}
    assert rows[("root", "kernel")]["calls"] == 2
    assert summary["counts"] == {"items": 5}


def test_resolve_names_a_stale_target():
    with pytest.raises(LookupError, match="Kernel.missing"):
        resolve(f"{__name__}.Kernel.missing")
    with pytest.raises(LookupError):
        resolve("repro_no_such_module.f")


def _span(path, calls, wall, self_s):
    return {"path": path, "calls": calls, "wall_s": wall, "self_s": self_s}


def test_guard_flags_stale_entries_and_unattributed_time():
    rows = [
        _span(["transition"], 5, 10.0, 0.1),
        _span(["transition", "step"], 5, 9.8, 0.1),
    ] + [
        _span(["transition", "step", entry[1]], 5, 0.5, 0.5)
        for entry in layers.TRACE_MAPS["epoch-4k"] if entry[1] != "step"
    ]
    assert layers.guard("epoch-4k", layers.Spans({"spans": rows})) == []

    stale = [r for r in rows if r["path"][-1] != "churn"]
    problems = layers.guard("epoch-4k", layers.Spans({"spans": stale}))
    assert problems == [
        "stale trace entry repro.churn.models.ChurnModel.apply: "
        "wrapped but never called"
    ]

    rows[1] = _span(["transition", "step"], 5, 9.8, 1.5)  # 16% glue
    problems = layers.guard("epoch-4k", layers.Spans({"spans": rows}))
    assert len(problems) == 1 and "root span transition" in problems[0]


# -- load generation ---------------------------------------------------------


def test_arrival_schedule_is_a_function_of_the_seed():
    a = loadgen.arrival_schedule(7, 1000.0, 10.0)
    assert (a == loadgen.arrival_schedule(7, 1000.0, 10.0)).all()
    assert not (a[:100] == loadgen.arrival_schedule(8, 1000.0, 10.0)[:100]).all()
    assert (a[1:] > a[:-1]).all() and 0 < a[0] and a[-1] < 10.0
    assert abs(a.size - 10_000) < 400          # ~4 sigma of Poisson(10k)


class EchoServer:
    """A stand-in service that answers each query line in order."""

    async def __aenter__(self):
        self.handlers = []
        self.server = await asyncio.start_server(self.handle, "127.0.0.1", 0)
        self.port = self.server.sockets[0].getsockname()[1]
        return self

    async def handle(self, reader, writer):
        self.handlers.append(asyncio.current_task())
        while line := await reader.readline():
            q = json.loads(line)
            writer.write(json.dumps(
                {"source": q["source"], "target": q["target"]}
            ).encode() + b"\n")
            await writer.drain()
        writer.close()
        await writer.wait_closed()

    async def __aexit__(self, *exc):
        self.server.close()
        await self.server.wait_closed()
        await asyncio.wait_for(asyncio.gather(*self.handlers), timeout=5)


def test_open_loop_counts_lateness_from_the_scheduled_time():
    """A stalled generator's delay lands in latency and in lateness."""

    async def scenario():
        async with EchoServer() as server:
            conns = await loadgen.connect("127.0.0.1", server.port, 2)
            offsets = loadgen.arrival_schedule(3, 500.0, 0.2)
            # block the loop for 80 ms just as the schedule starts
            asyncio.get_running_loop().call_soon(time.sleep, 0.08)
            phase = await loadgen.open_loop(
                conns, loadgen.Queries(3, 0, 64), "rate", offsets)
            await loadgen.close(conns)
        return phase, offsets

    phase, offsets = asyncio.run(scenario())
    assert len(phase.answered) == len(offsets)
    late, latency = phase.late_ms(), phase.latencies_ms()
    assert all(lat >= lt for lat, lt in zip(latency, late))
    stalled = [i for i, o in enumerate(offsets) if o < 0.07]
    assert stalled and all(late[i] > 5.0 for i in stalled)
    assert late[stalled[0]] > 60.0 and phase.late_p99_ms() > 60.0


def test_pipelined_replies_pair_with_their_requests():
    async def scenario():
        async with EchoServer() as server:
            conns = await loadgen.connect("127.0.0.1", server.port, 2)
            phase = await loadgen.closed_loop(
                conns, loadgen.Queries(5, 0, 4096), "sat", 0.2, depth=8)
            await loadgen.close(conns)
        return phase

    phase = asyncio.run(scenario())
    assert len(phase.answered) == len(phase.sources) > 16
    for i in phase.answered:
        answer = json.loads(phase.lines[i])
        assert (answer["source"], answer["target"]) == (
            phase.sources[i], phase.targets[i])


# -- compare.py verdicts -----------------------------------------------------

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


@pytest.mark.parametrize("b, better, expected", [
    ([v * 1.01 for v in BASE[::-1]], "lower", "unchanged"),
    ([v * 0.8 for v in BASE], "lower", "improved"),
    ([v * 0.8 for v in BASE], "higher", "regressed"),
    ([v * 1.3 for v in BASE], "lower", "regressed"),
    ([v * 1.3 for v in BASE], "higher", "improved"),
    ([60.0, 150.0, 80.0, 140.0, 100.0, 70.0, 130.0, 90.0, 120.0, 110.0],
     "lower", "unresolved"),
])
def test_compare_verdicts(b, better, expected):
    v, share = compare.verdict(BASE, b, 0.1, better)
    assert v == expected
    assert 0.0 <= share <= 1.0
