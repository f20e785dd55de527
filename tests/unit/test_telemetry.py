"""Unit tests: the structured telemetry layer (repro.telemetry).

The layer's load-bearing guarantees, each tested directly: schema-checked
writes that fail the emitter (never the stream), single-write O_APPEND
lines that survive concurrent OS-process writers, monotonic per-writer
timestamps under a misbehaving clock, and permissive reads (unknown
types, version skew, torn tail lines).
"""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.telemetry import (
    SCHEMA_VERSION,
    TelemetryBuffer,
    TelemetryError,
    TelemetryWriter,
    check_event,
    default_writer,
    emit_default,
    make_event,
    read_events,
    reset_default_writer,
    set_default_writer,
    span,
    telemetry_to,
)


class TestRecords:
    def test_make_event_envelope(self):
        event = make_event("dispatch.lease", ts=1.5, index=3, worker="w1")
        assert event["v"] == SCHEMA_VERSION
        assert event["ts"] == 1.5
        assert event["type"] == "dispatch.lease"
        assert event["index"] == 3 and event["worker"] == "w1"

    def test_payload_may_not_shadow_envelope(self):
        with pytest.raises(TelemetryError, match="shadow"):
            make_event("dispatch.lease", ts=0.0, **{"v": 2})

    def test_known_type_missing_field_is_a_problem(self):
        event = make_event("dispatch.lease", ts=0.0, index=1)  # no worker
        assert any("worker" in p for p in check_event(event))

    def test_bool_rejected_for_numeric_fields(self):
        event = make_event("span", ts=0.0, phase="dispatch.execute", wall_s=True)
        assert any("wall_s" in p for p in check_event(event))

    def test_span_needs_a_phase(self):
        event = make_event("span", ts=0.0, wall_s=0.5, peak_rss_mb=10.0)
        assert any("phase" in p for p in check_event(event))
        event = make_event("span", ts=0.0, phase="sweep.E1", wall_s=0.5)
        assert check_event(event) == []  # peak_rss_mb is optional

    def test_unknown_type_and_extra_fields_tolerated(self):
        assert check_event(make_event("future.metric", ts=0.0, anything=1)) == []
        event = make_event(
            "dispatch.lease", ts=0.0, index=1, worker="w", annotation="extra"
        )
        assert check_event(event) == []

    def test_non_dict_rejected(self):
        assert check_event([1, 2]) != []
        assert check_event({"ts": "late", "v": 1, "type": "x"}) != []


class TestWriter:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with TelemetryWriter(path, clock=iter([1.0, 2.0]).__next__) as w:
            w.emit("dispatch.lease", index=0, worker="w1")
            w.emit("dispatch.complete", index=0, worker="w1", verdict="accepted")
        events = read_events(path, strict=True)
        assert [e["type"] for e in events] == [
            "dispatch.lease", "dispatch.complete",
        ]
        assert events[0]["ts"] == 1.0 and events[1]["ts"] == 2.0

    def test_malformed_emit_raises_and_writes_nothing(self, tmp_path):
        path = tmp_path / "events.jsonl"
        writer = TelemetryWriter(path)
        with pytest.raises(TelemetryError):
            writer.emit("dispatch.lease", index="not-an-int", worker="w")
        with pytest.raises(TelemetryError):
            writer.emit("dispatch.serve", enqueued=1, units=1,
                        fingerprint="f", payload=object())
        assert read_events(path) == []

    def test_monotonic_clamp_under_backwards_clock(self, tmp_path):
        ticks = iter([5.0, 3.0, 7.0])
        path = tmp_path / "events.jsonl"
        with TelemetryWriter(path, clock=ticks.__next__) as w:
            for _ in range(3):
                w.emit("dispatch.requeue", index=0)
        stamps = [e["ts"] for e in read_events(path)]
        assert stamps == [5.0, 5.0, 7.0]  # never backwards per writer

    def test_creates_parent_directory_lazily(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "events.jsonl"
        with TelemetryWriter(path) as w:
            assert not path.parent.exists()  # nothing until first emit
            w.emit("dispatch.requeue", index=1)
        assert read_events(path)[0]["index"] == 1

    def test_appends_do_not_truncate(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with TelemetryWriter(path) as w:
            w.emit("dispatch.requeue", index=0)
        with TelemetryWriter(path) as w:
            w.emit("dispatch.requeue", index=1)
        assert [e["index"] for e in read_events(path)] == [0, 1]

    @settings(
        max_examples=25, deadline=None,
        # tmp_path is shared across examples by design: each example writes
        # to its own file inside it (unique name below)
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        fields=st.dictionaries(
            # payload keys must not shadow the envelope (v/ts/type)
            st.text(
                alphabet="abcdefghijklmnopqrstuwxyz_", min_size=1, max_size=8
            ).filter(lambda k: k not in ("v", "ts", "type")),
            st.one_of(
                st.integers(min_value=-(2**53), max_value=2**53),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(max_size=20),
                st.booleans(),
            ),
            max_size=5,
        )
    )
    def test_property_round_trip_arbitrary_payloads(self, tmp_path, fields):
        # unknown type => open registry: any JSON payload must round-trip
        # through disk byte-exactly
        path = tmp_path / f"prop-{os.getpid()}-{len(os.listdir(tmp_path))}.jsonl"
        with TelemetryWriter(path, clock=lambda: 1.0) as w:
            written = w.emit("test.anything", **fields)
        (read,) = read_events(path, strict=True)
        assert read == written


class TestBuffer:
    def test_buffer_same_surface(self):
        buf = TelemetryBuffer(clock=iter([1.0, 0.5, 2.0]).__next__)
        buf.emit("dispatch.requeue", index=0)
        buf.emit("dispatch.requeue", index=1)
        assert [e["ts"] for e in buf.events] == [1.0, 1.0]  # clamped
        assert len(buf.of_type("dispatch.requeue")) == 2
        with pytest.raises(TelemetryError):
            buf.emit("dispatch.lease", index="bad", worker="w")


class TestReader:
    def test_torn_tail_line_skipped_or_strict(self, tmp_path):
        path = tmp_path / "events.jsonl"
        good = json.dumps(make_event("dispatch.requeue", ts=1.0, index=0))
        # a torn append, and a free-text line no writer here produces
        for bad in ('{"v": 1, "ts": 2.0, "ty', "100.0 serve enqueued=6"):
            path.write_text(good + "\n" + bad)
            assert len(read_events(path)) == 1
            with pytest.raises(TelemetryError, match="unparseable"):
                read_events(path, strict=True)

    def test_version_skew_tolerated(self, tmp_path):
        path = tmp_path / "events.jsonl"
        future = {"v": 99, "ts": 1.0, "type": "dispatch.lease",
                  "index": 0, "worker": "w", "new_field": {"nested": True}}
        path.write_text(json.dumps(future) + "\n")
        (event,) = read_events(path, strict=True)
        assert event == future  # v is data, not a gate

    def test_missing_file(self, tmp_path):
        assert read_events(tmp_path / "nope.jsonl") == []
        with pytest.raises(TelemetryError):
            read_events(tmp_path / "nope.jsonl", strict=True)

    def test_non_object_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("[1, 2, 3]\n")
        assert read_events(path) == []
        with pytest.raises(TelemetryError, match="not an object"):
            read_events(path, strict=True)


_CONCURRENT_WRITER = """
import sys
from repro.telemetry import TelemetryWriter

path, tag, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
with TelemetryWriter(path) as w:
    for i in range(count):
        w.emit("dispatch.requeue", index=i, reason=tag * 40)
"""


class TestConcurrentWriters:
    def test_two_os_processes_never_interleave_lines(self, tmp_path):
        """Two OS processes hammering one file: every line must parse and
        both full event sequences must be present (O_APPEND atomicity)."""
        path = tmp_path / "shared.jsonl"
        count = 200
        env = dict(os.environ)
        src = str(
            __import__("pathlib").Path(__file__).resolve().parents[2] / "src"
        )
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _CONCURRENT_WRITER,
                 str(path), tag, str(count)],
                env=env,
            )
            for tag in ("a", "b")
        ]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        events = read_events(path, strict=True)  # strict: no torn lines
        assert len(events) == 2 * count
        for tag in ("a", "b"):
            indexes = [
                e["index"] for e in events if e["reason"] == tag * 40
            ]
            assert indexes == list(range(count))  # per-writer order kept


class TestDefaultSink:
    def test_emit_default_noop_without_sink(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        reset_default_writer()
        try:
            assert emit_default("dispatch.requeue", index=0) is None
        finally:
            reset_default_writer()

    def test_env_var_resolves_once(self, tmp_path, monkeypatch):
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv("REPRO_TELEMETRY", str(path))
        reset_default_writer()
        try:
            assert emit_default("dispatch.requeue", index=5) is not None
            assert read_events(path)[0]["index"] == 5
        finally:
            reset_default_writer()

    def test_telemetry_to_scopes_and_restores(self, tmp_path):
        reset_default_writer()
        before = set_default_writer(None)
        try:
            with telemetry_to(tmp_path / "scoped.jsonl") as writer:
                emit_default("dispatch.requeue", index=1)
                assert writer.path.exists()
            assert emit_default("dispatch.requeue", index=2) is None
            assert len(read_events(tmp_path / "scoped.jsonl")) == 1
        finally:
            set_default_writer(before)
            reset_default_writer()


class TestSpan:
    """``span``: one event per completed phase, and nothing without a sink."""

    def _counting(self, monkeypatch):
        """Count the span module's clock reads and RSS samples."""
        import time
        import types

        from repro.telemetry import spans

        calls = {"clock": 0, "rss": 0}
        rss = spans.peak_rss_mb

        def counted_clock():
            calls["clock"] += 1
            return time.perf_counter()

        def counted_rss():
            calls["rss"] += 1
            return rss()

        monkeypatch.setattr(
            spans, "time", types.SimpleNamespace(perf_counter=counted_clock)
        )
        monkeypatch.setattr(spans, "peak_rss_mb", counted_rss)
        return calls

    def test_no_sink_reads_no_clock_and_no_rss(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        reset_default_writer()
        try:
            calls = self._counting(monkeypatch)
            with span("sweep.E1.cell", index=0):
                pass
            assert calls == {"clock": 0, "rss": 0}
            assert default_writer() is None
        finally:
            reset_default_writer()

    def test_buffer_sink_gets_one_event(self, monkeypatch):
        calls = self._counting(monkeypatch)
        buf = TelemetryBuffer()
        with span("static.search.window", sink=buf, index=3, n=1024):
            pass
        (event,) = buf.events
        assert event["type"] == "span"
        assert event["phase"] == "static.search.window"
        assert event["wall_s"] >= 0
        assert event["peak_rss_mb"] > 0
        assert (event["index"], event["n"]) == (3, 1024)
        assert check_event(event) == []
        assert calls == {"clock": 2, "rss": 1}

    def test_default_sink_used_when_none_given(self):
        buf = TelemetryBuffer()
        previous = set_default_writer(buf)
        try:
            with span("sweep.E2"):
                pass
        finally:
            set_default_writer(previous)
        assert [e["phase"] for e in buf.of_type("span")] == ["sweep.E2"]

    def test_raising_body_emits_nothing(self):
        buf = TelemetryBuffer()
        with pytest.raises(ValueError, match="boom"):
            with span("dispatch.execute", sink=buf, index=0, worker="w"):
                raise ValueError("boom")
        assert buf.events == []

    def test_unreadable_rss_emits_null_peak(self, monkeypatch):
        from repro.telemetry import spans

        monkeypatch.setattr(spans, "peak_rss_mb", lambda: None)
        buf = TelemetryBuffer()
        with span("serve.publish", sink=buf, epoch=1):
            pass
        (event,) = buf.events
        assert event["peak_rss_mb"] is None and event["epoch"] == 1

    def test_chunked_static_search_spans_each_window(self):
        import numpy as np

        from repro.core.params import SystemParams
        from repro.core.static_case import (
            measure_static_search,
            synthetic_static_graph,
        )
        from repro.inputgraph import make_input_graph

        rng = np.random.default_rng(0)
        H = make_input_graph("chord", rng.random(256))
        gg = synthetic_static_graph(H, SystemParams(n=256, seed=0), 0.05, rng)
        buf = TelemetryBuffer()
        previous = set_default_writer(buf)
        try:
            measure_static_search(
                gg, 1000, np.random.default_rng(1), probe_chunk=300
            )
        finally:
            set_default_writer(previous)
        windows = buf.of_type("span")
        assert [e["phase"] for e in windows] == ["static.search.window"] * 4
        assert [e["index"] for e in windows] == [0, 1, 2, 3]
