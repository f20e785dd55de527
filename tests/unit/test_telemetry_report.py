"""Unit tests: the telemetry summariser and its CLI surface.

The acceptance bar from the telemetry refactor: ``repro telemetry
report`` must reproduce the perf ledger's rows from ``bench.row`` events
alone, and the summary views (dispatch funnel, sweep trends, pool and
serving sections) must be derivable from any mixed stream.
"""

import json

import pytest

from repro.analysis.benchio import bench_row, record_bench_rows
from repro.analysis.telemetry_report import (
    bench_rows_from_events,
    check_bench,
    render_report,
    summarize_events,
)
from repro.cli import main
from repro.telemetry import TelemetryBuffer, TelemetryWriter


def _mixed_buffer() -> TelemetryBuffer:
    ticks = iter(float(i) for i in range(100))
    buf = TelemetryBuffer(clock=ticks.__next__)
    buf.emit("dispatch.serve", enqueued=2, units=2, fingerprint="f" * 20)
    buf.emit("dispatch.lease", index=0, worker="wA")
    buf.emit("dispatch.execute", index=0, worker="wA", wall_s=0.25)
    buf.emit("dispatch.complete", index=0, worker="wA", verdict="accepted",
             lease_latency_s=0.3)
    buf.emit("dispatch.lease", index=1, worker="wB")
    buf.emit("dispatch.complete", index=1, worker="wB", verdict="corrupt")
    buf.emit("dispatch.requeue", index=1, reason="corrupt")
    buf.emit("dispatch.quorum", index=0, outcome="vote")
    buf.emit("dispatch.quorum", index=0, outcome="settled")
    buf.emit("dispatch.quorum", index=1, outcome="tie")
    buf.emit("dispatch.poison", index=1, attempts=3)
    buf.emit("dispatch.suspect", worker="wLiar", suspicion=1)
    buf.emit("dispatch.suspect", worker="wLiar", suspicion=2)
    buf.emit("sweep.cell", experiment="E2", index=0, backend="serial",
             wall_s=0.01)
    buf.emit("sweep.cell", experiment="E2", index=1, backend="serial",
             wall_s=0.03)
    buf.emit("sweep.run", experiment="E2", cells=2, backend="serial",
             wall_s=0.05)
    buf.emit("trials.run", backend="serial", trials=1000, wall_s=0.5)
    buf.emit("trials.run", backend="vectorized", trials=1000, wall_s=0.1)
    buf.emit("pool.spawn", workers=4, mp_method="spawn")
    buf.emit("pool.reuse", workers=4, requested=2)
    buf.emit("pool.reuse", workers=4, requested=4)
    buf.emit("pool.broken", workers=4)
    buf.emit("sweep.degrade", experiment="E2", reason="unpicklable-cell",
             detail="PicklingError")
    buf.emit("bench.calibration", wall_s=0.02)
    buf.emit("bench.row", **bench_row("E2", 1024, "cells-serial", 2.0, 1, 1000))
    buf.emit("bench.row", **bench_row("E2", 1024, "cells-process", 0.2, 1, 1000))
    return buf


class TestSummary:
    def test_dispatch_funnel(self):
        summary = summarize_events(_mixed_buffer().events)
        dispatch = summary["dispatch"]
        assert dispatch["served_units"] == 2
        assert dispatch["leases"] == 2
        assert dispatch["verdicts"] == {"accepted": 1, "corrupt": 1}
        assert dispatch["requeues"] == {"corrupt": 1}
        assert dispatch["lease_latency_s"]["count"] == 1
        assert dispatch["lease_latency_s"]["p50"] == 0.3
        assert dispatch["execute_wall_s"]["max"] == 0.25

    def test_sweep_and_trials_sections(self):
        summary = summarize_events(_mixed_buffer().events)
        (sweep,) = summary["sweeps"]
        assert sweep["experiment"] == "E2" and sweep["runs"] == 1
        assert sweep["cell_wall_s"]["count"] == 2
        assert sweep["cell_wall_s"]["p50"] in (0.01, 0.03)
        # trials.run has no registered shape and no section any more: a
        # stream that still carries it is counted, never summarised
        assert summary["types"]["trials.run"] == 2
        assert "trials" not in summary

    def test_bench_section_with_speedups(self):
        summary = summarize_events(_mixed_buffer().events)
        bench = summary["bench"]
        assert len(bench["rows"]) == 2
        (speedup,) = bench["speedups"]
        assert speedup["speedup"] == 10.0
        assert speedup["pair"] == "cells-serial/cells-process"
        assert bench["calibration_wall_s"] == 0.02

    def test_old_sweep_events_with_kernel_fold_into_backend_rows(self):
        # streams written while cells still had a kernel option carry a
        # `kernel` field; readers ignore it and group per (experiment,
        # backend), so old and new events land in one row
        buf = TelemetryBuffer(clock=lambda: 1.0)
        for kernel in ("serial", "vectorized", None):
            extra = {} if kernel is None else {"kernel": kernel}
            buf.emit("sweep.cell", experiment="E4", index=0,
                     backend="serial", wall_s=0.5, **extra)
            buf.emit("sweep.run", experiment="E4", cells=1,
                     backend="serial", wall_s=0.5, **extra)
        (sweep,) = summarize_events(buf.events)["sweeps"]
        assert (sweep["experiment"], sweep["backend"]) == ("E4", "serial")
        assert "kernel" not in sweep
        assert sweep["runs"] == 3 and sweep["cell_wall_s"]["count"] == 3
        assert "E4 serial" in render_report(summarize_events(buf.events))

    def test_pool_section(self):
        summary = summarize_events(_mixed_buffer().events)
        pool = summary["pool"]
        assert pool["spawns"] == 1
        assert pool["reuses"] == 2
        assert pool["broken"] == 1
        assert pool["degrades"] == {"E2:unpicklable-cell": 1}

    def test_no_pool_events_no_section(self):
        buf = TelemetryBuffer(clock=lambda: 1.0)
        buf.emit("sweep.run", experiment="E2", cells=2, backend="serial",
                 wall_s=0.05)
        assert "pool" not in summarize_events(buf.events)

    def test_quorum_funnel(self):
        summary = summarize_events(_mixed_buffer().events)
        quorum = summary["dispatch"]["quorum"]
        assert quorum["outcomes"] == {"vote": 1, "settled": 1, "tie": 1}
        assert quorum["poisoned"] == 1
        # a worker's suspicion only grows: the last emission is final
        assert quorum["suspicion"] == {"wLiar": 2}

    def test_no_quorum_events_no_quorum_block(self):
        buf = TelemetryBuffer(clock=lambda: 1.0)
        buf.emit("dispatch.serve", enqueued=1, units=1, fingerprint="f" * 20)
        assert "quorum" not in summarize_events(buf.events)["dispatch"]

    def test_unknown_types_counted_not_fatal(self):
        buf = TelemetryBuffer(clock=lambda: 1.0)
        buf.emit("future.metric", whatever=1)
        summary = summarize_events(buf.events)
        assert summary["types"] == {"future.metric": 1}
        assert "dispatch" not in summary

    def test_render_is_text_with_all_sections(self):
        text = render_report(summarize_events(_mixed_buffer().events))
        for needle in ("dispatch funnel", "sweep cells", "bench ledger",
                       "host calibration", "speedup",
                       "worker pool:", "broken=1",
                       "degrade E2:unpicklable-cell", "quorum:",
                       "suspect wLiar", "suspicion=2", "poisoned"):
            assert needle in text


def _serve_events() -> list[dict]:
    """A fixed synthetic serving stream with *out-of-order* timestamps.

    20 ``serve.request`` events with latencies 1..20 ms; timestamps cover
    [100, 104]s but arrive scrambled (``(i * 7) % 20`` is a permutation),
    so the QPS golden below only holds if the summariser uses min/max —
    not first/last — to span the stream.
    """
    events = []
    for i in range(1, 21):
        events.append({
            "v": 1,
            "ts": 100.0 + ((i * 7) % 20) * (4.0 / 19),
            "type": "serve.request",
            "latency_s": i / 1000.0,
            "epoch": 0 if i <= 12 else 1,
            "outcome": "corrupted" if i % 5 == 0 else "delivered",
        })
    events.append({
        "v": 1, "ts": 102.0, "type": "serve.publish", "epoch": 1,
        "wall_s": 0.05,
    })
    events.append({
        "v": 1, "ts": 99.0, "type": "churn.clipped", "model": "uniform",
        "rate": 0.9, "cap": 0.1667,
    })
    return events


class TestServeSection:
    """Golden values for the serving-layer summary (ISSUE 10 satellite)."""

    def test_golden_qps_and_percentiles(self):
        serve = summarize_events(_serve_events())["serve"]
        assert serve["requests"] == 20
        # span = 104.0 - 100.0 regardless of emission order
        assert serve["qps"] == 5.0
        lat = serve["latency_s"]
        assert (lat["p50"], lat["p95"], lat["p99"], lat["max"]) == (
            0.011, 0.019, 0.02, 0.02
        )
        assert lat["total"] == 0.21
        assert serve["outcomes"] == {"delivered": 16, "corrupted": 4}

    def test_golden_per_epoch_breakdown(self):
        serve = summarize_events(_serve_events())["serve"]
        assert sorted(serve["epochs"]) == [0, 1]
        epoch0, epoch1 = serve["epochs"][0], serve["epochs"][1]
        assert (epoch0["count"], epoch0["p50"], epoch0["p99"]) == (12, 0.007, 0.012)
        assert (epoch1["count"], epoch1["p50"], epoch1["p99"]) == (8, 0.017, 0.02)

    def test_publishes_and_clips(self):
        serve = summarize_events(_serve_events())["serve"]
        assert serve["publishes"]["count"] == 1
        assert serve["publishes"]["epochs"] == [1]
        assert serve["publishes"]["wall_s"]["p50"] == 0.05
        assert serve["churn_clips"] == [
            {"model": "uniform", "rate": 0.9, "cap": 0.1667}
        ]

    def test_single_request_has_no_qps(self):
        summary = summarize_events([_serve_events()[0]])
        assert summary["serve"]["qps"] is None
        assert summary["serve"]["requests"] == 1

    def test_goldens_survive_file_roundtrip_with_torn_tail(self, tmp_path):
        from repro.telemetry import read_events

        path = tmp_path / "serve.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for event in _serve_events():
                fh.write(json.dumps(event) + "\n")
            # a crashed writer's torn tail: no newline, truncated JSON
            fh.write('{"v": 1, "ts": 105.0, "type": "serve.request", "laten')
        events = read_events(path)
        assert len(events) == 22  # the torn line is dropped, not fatal
        serve = summarize_events(events)["serve"]
        assert serve["qps"] == 5.0
        assert serve["latency_s"]["p99"] == 0.02

    def test_render_serving_section(self):
        text = render_report(summarize_events(_serve_events()))
        for needle in ("serving layer", "5.0 QPS", "p50 11.00ms",
                       "p99 20.00ms", "epoch 0", "epoch 1",
                       "publishes         1", "churn clipped"):
            assert needle in text


class TestBenchReconstruction:
    def test_rows_last_emission_wins_and_sorted(self):
        buf = TelemetryBuffer(clock=lambda: 1.0)
        buf.emit("bench.row", **bench_row("E3", 8192, "serial", 5.0, 12, 1))
        buf.emit("bench.row", **bench_row("E2", 1024, "serial", 2.0, 1, 1))
        buf.emit("bench.row", **bench_row("E2", 1024, "serial", 1.5, 1, 1))
        rows = bench_rows_from_events(buf.events)
        assert [(r["experiment"], r["wall_s"]) for r in rows] == [
            ("E2", 1.5), ("E3", 5.0),
        ]

    def test_malformed_row_events_skipped(self):
        events = [
            {"v": 1, "ts": 1.0, "type": "bench.row", "experiment": "E2"},
            {"v": 1, "ts": 1.0, "type": "bench.row",
             **bench_row("E2", 1, "serial", 1.0, 1, 1)},
        ]
        assert len(bench_rows_from_events(events)) == 1

    def test_check_bench_matches_written_file(self, tmp_path):
        buf = _mixed_buffer()
        path = tmp_path / "BENCH.json"
        record_bench_rows(path, bench_rows_from_events(buf.events))
        assert check_bench(buf.events, path) == []

    def test_check_bench_flags_divergence(self, tmp_path):
        buf = _mixed_buffer()
        path = tmp_path / "BENCH.json"
        rows = bench_rows_from_events(buf.events)
        rows[0] = dict(rows[0], wall_s=999.0)  # the file lies
        record_bench_rows(path, rows)
        problems = check_bench(buf.events, path)
        assert problems and "differs" in problems[0]

    def test_check_bench_flags_missing_row(self, tmp_path):
        buf = _mixed_buffer()
        path = tmp_path / "BENCH.json"
        record_bench_rows(path, bench_rows_from_events(buf.events)[:1])
        assert any("not in" in p for p in check_bench(buf.events, path))

    def test_check_bench_no_events(self, tmp_path):
        path = tmp_path / "BENCH.json"
        record_bench_rows(path, [])
        assert check_bench([], path) != []


class TestCli:
    def _events_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with TelemetryWriter(path, clock=lambda: 1.0) as w:
            for event in _mixed_buffer().events:
                payload = {
                    k: v for k, v in event.items()
                    if k not in ("v", "ts", "type")
                }
                w.emit(event["type"], **payload)
        return path

    def test_report_text(self, tmp_path, capsys):
        path = self._events_file(tmp_path)
        assert main(["telemetry", "report", "--events", str(path)]) == 0
        out = capsys.readouterr().out
        assert "dispatch funnel" in out and "bench ledger" in out

    def test_report_json(self, tmp_path, capsys):
        path = self._events_file(tmp_path)
        assert main(["telemetry", "report", "--events", str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["dispatch"]["served_units"] == 2

    def test_report_write_then_check_bench(self, tmp_path, capsys):
        path = self._events_file(tmp_path)
        bench = tmp_path / "BENCH.json"
        assert main([
            "telemetry", "report", "--events", str(path),
            "--write-bench", str(bench),
        ]) == 0
        assert main([
            "telemetry", "report", "--events", str(path),
            "--check-bench", str(bench),
        ]) == 0
        assert "matches" in capsys.readouterr().out

    def test_report_check_bench_failure_exit_code(self, tmp_path, capsys):
        path = self._events_file(tmp_path)
        bench = tmp_path / "BENCH.json"
        record_bench_rows(bench, [bench_row("E2", 1024, "serial", 123.0, 1, 1000)])
        assert main([
            "telemetry", "report", "--events", str(path),
            "--check-bench", str(bench),
        ]) == 1
        assert "check-bench" in capsys.readouterr().err

    def test_report_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["telemetry", "report", "--events", str(empty)]) == 1
        assert "no events" in capsys.readouterr().err
