"""Unit tests: the telemetry summariser and its CLI surface.

The summary views (dispatch funnel, pool, serving section and the span
table) must be derivable from any mixed stream.
"""

import json

import pytest

from repro.analysis.telemetry_report import render_report, summarize_events
from repro.cli import main
from repro.telemetry import TelemetryBuffer, TelemetryWriter


def _mixed_buffer() -> TelemetryBuffer:
    ticks = iter(float(i) for i in range(100))
    buf = TelemetryBuffer(clock=ticks.__next__)
    buf.emit("dispatch.serve", enqueued=2, units=2, fingerprint="f" * 20)
    buf.emit("dispatch.lease", index=0, worker="wA")
    buf.emit("span", phase="dispatch.execute", index=0, worker="wA",
             wall_s=0.25, peak_rss_mb=80.0)
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
    # the five emitters' phases, in no particular order
    buf.emit("span", phase="sweep.E2.cell", index=0, wall_s=0.01,
             peak_rss_mb=100.0)
    buf.emit("span", phase="sweep.E2.cell", index=1, wall_s=0.03,
             peak_rss_mb=101.0)
    buf.emit("span", phase="sweep.E2", cells=2, backend="serial",
             wall_s=0.05, peak_rss_mb=101.0)
    buf.emit("span", phase="serve.publish", epoch=1, wall_s=0.5,
             peak_rss_mb=90.0)
    buf.emit("trials.run", backend="serial", trials=1000, wall_s=0.5)
    buf.emit("trials.run", backend="vectorized", trials=1000, wall_s=0.1)
    buf.emit("pool.spawn", workers=4, mp_method="spawn")
    buf.emit("pool.reuse", workers=4, requested=2)
    buf.emit("pool.reuse", workers=4, requested=4)
    buf.emit("pool.broken", workers=4)
    buf.emit("sweep.degrade", experiment="E2", reason="unpicklable-cell",
             detail="PicklingError")
    buf.emit("span", phase="static.search.window", index=0, wall_s=0.2,
             peak_rss_mb=120.5)
    buf.emit("span", phase="static.search.window", index=1, wall_s=0.4,
             peak_rss_mb=130.25)
    return buf


# parents before their children, siblings by name
DOTTED_ORDER = [
    "dispatch.execute", "serve.publish", "static.search.window",
    "sweep.E2", "sweep.E2.cell",
]


class TestSummary:
    def test_dispatch_funnel(self):
        summary = summarize_events(_mixed_buffer().events)
        dispatch = summary["dispatch"]
        assert dispatch["served_units"] == 2
        assert dispatch["leases"] == 2
        assert dispatch["executes"] == 1  # its dispatch.execute span
        assert dispatch["verdicts"] == {"accepted": 1, "corrupt": 1}
        assert dispatch["requeues"] == {"corrupt": 1}
        assert dispatch["lease_latency_s"]["count"] == 1
        assert dispatch["lease_latency_s"]["p50"] == 0.3
        assert "execute_wall_s" not in dispatch  # the span table has it

    def test_span_table(self):
        summary = summarize_events(_mixed_buffer().events)
        spans = summary["spans"]
        assert list(spans) == DOTTED_ORDER
        assert summary["types"]["span"] == 7
        cells = spans["sweep.E2.cell"]
        assert cells["count"] == 2 and cells["p50"] in (0.01, 0.03)
        assert (cells["max"], cells["peak_rss_mb"]) == (0.03, 101.0)
        windows = spans["static.search.window"]
        assert (windows["count"], windows["max"]) == (2, 0.4)
        assert windows["peak_rss_mb"] == 130.25  # the largest, not the last
        assert spans["dispatch.execute"]["p95"] == 0.25
        assert spans["serve.publish"]["count"] == 1
        # the retired per-emitter sections are gone
        assert not {"sweeps", "mem"} & set(summary)
        # trials.run has no registered shape and no section any more: a
        # stream that still carries it is counted, never summarised
        assert summary["types"]["trials.run"] == 2
        assert "trials" not in summary

    def test_span_rows_parents_before_children(self):
        buf = TelemetryBuffer(clock=lambda: 1.0)
        for phase in ("sweep.E10", "sweep.E1.cell", "sweep.E1-x", "sweep.E1",
                      "sweep.E1.cell"):
            buf.emit("span", phase=phase, wall_s=0.1)
        spans = summarize_events(buf.events)["spans"]
        assert list(spans) == ["sweep.E1", "sweep.E1.cell", "sweep.E1-x",
                               "sweep.E10"]
        assert spans["sweep.E1.cell"]["count"] == 2
        # no peak in the stream (an unreadable ru_maxrss): none reported
        assert spans["sweep.E1"]["peak_rss_mb"] is None
        text = render_report(summarize_events(buf.events))
        assert "peak" not in text.split("spans (")[1].split("\n", 1)[1]

    def test_old_bench_events_counted_not_summarised(self):
        # ledger rows live only in their BENCH_*.json files: a stream from
        # before that still carries bench.* events counts them and has no
        # bench section
        buf = TelemetryBuffer(clock=lambda: 1.0)
        buf.emit("bench.calibration", wall_s=0.02)
        buf.emit("bench.row", experiment="E2", n=1024, backend="cells-serial",
                 wall_s=2.0, cells=1, trials=1000)
        summary = summarize_events(buf.events)
        assert summary["types"] == {"bench.calibration": 1, "bench.row": 1}
        assert set(summary) == {"events", "types"}
        assert "bench ledger" not in render_report(summary)

    def test_pool_section(self):
        summary = summarize_events(_mixed_buffer().events)
        pool = summary["pool"]
        assert pool["spawns"] == 1
        assert pool["reuses"] == 2
        assert pool["broken"] == 1
        assert pool["degrades"] == {"E2:unpicklable-cell": 1}

    def test_no_pool_events_no_section(self):
        buf = TelemetryBuffer(clock=lambda: 1.0)
        buf.emit("span", phase="sweep.E2", cells=2, backend="serial",
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
        assert "dispatch" not in summary and "spans" not in summary

    def test_render_is_text_with_all_sections(self):
        text = render_report(summarize_events(_mixed_buffer().events))
        for needle in ("dispatch funnel", "executions        1",
                       "spans (phase: count, wall p50/p95/max, peak RSS):",
                       "worker pool:", "broken=1",
                       "degrade E2:unpicklable-cell", "quorum:",
                       "suspect wLiar", "suspicion=2", "poisoned"):
            assert needle in text
        assert "execute wall" not in text and "memory" not in text

    def test_render_span_rows_in_dotted_order(self):
        text = render_report(summarize_events(_mixed_buffer().events))
        rows = text.split("spans (")[1].splitlines()[1:]
        assert [row.split()[0] for row in rows] == DOTTED_ORDER
        window = rows[DOTTED_ORDER.index("static.search.window")]
        assert window.split() == [
            "static.search.window", "n=2", "p50", "0.2000s", "p95",
            "0.4000s", "max", "0.4000s", "peak", "130.2MB",
        ]


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
        "v": 1, "ts": 102.0, "type": "span", "phase": "serve.publish",
        "epoch": 1, "wall_s": 0.05, "peak_rss_mb": 50.0,
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

    def test_publish_span_and_clips(self):
        summary = summarize_events(_serve_events())
        publish = summary["spans"]["serve.publish"]
        assert (publish["count"], publish["p50"]) == (1, 0.05)
        assert publish["peak_rss_mb"] == 50.0
        serve = summary["serve"]
        assert "publishes" not in serve
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
                       "p99 20.00ms", "epoch 0", "epoch 1", "churn clipped",
                       "serve.publish          n=1     p50 0.0500s"):
            assert needle in text


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
        assert "dispatch funnel" in out and "spans (phase" in out

    def test_report_json(self, tmp_path, capsys):
        path = self._events_file(tmp_path)
        assert main(["telemetry", "report", "--events", str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["dispatch"]["served_units"] == 2
        assert sorted(summary["spans"]) == DOTTED_ORDER
        assert summary["spans"]["sweep.E2"] == {
            "count": 1, "p50": 0.05, "p95": 0.05, "p99": 0.05, "max": 0.05,
            "total": 0.05, "peak_rss_mb": 101.0,
        }

    def test_ledger_flags_are_gone(self, tmp_path):
        path = self._events_file(tmp_path)
        for flag in ("--check-bench", "--write-bench"):
            with pytest.raises(SystemExit) as exc:
                main(["telemetry", "report", "--events", str(path), flag,
                      str(tmp_path / "BENCH.json")])
            assert exc.value.code == 2
        assert not (tmp_path / "BENCH.json").exists()

    def test_report_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["telemetry", "report", "--events", str(empty)]) == 1
        assert "no events" in capsys.readouterr().err
