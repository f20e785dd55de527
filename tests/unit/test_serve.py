"""Unit tests: the asyncio serving layer (``repro.serve``).

The acceptance bar from ISSUE 10: queries against a live, churning
simulator are answered from consistent copy-on-publish snapshots, and
every response is **byte-identical** to an offline oracle that replays
the same config.  These tests pin that plus the protocol edges (status,
stop, malformed requests) and both load-generator disciplines.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.serve import (
    EpochSnapshot,
    LoadReport,
    RoutingService,
    ServeConfig,
    build_snapshot,
    canonical_response,
    make_simulator,
    replay_snapshots,
    run_load,
    send_stop,
    verify_responses,
)
from repro.telemetry import TelemetryBuffer

CONFIG = ServeConfig(
    n=128, epochs=2, churn_rate=0.05, probes=200, epoch_period_s=0.05
)
# no epochs publish: nothing on the service side sleeps
FROZEN = ServeConfig(n=128, epochs=0, churn_rate=0.0, probes=200)


def _queries(count: int, n: int, seed: int = 7) -> list[tuple[int, float]]:
    rng = np.random.default_rng(seed)
    return [
        (int(rng.integers(0, n)), float(rng.random())) for _ in range(count)
    ]


class TestConfig:
    @pytest.mark.parametrize("bad", [
        dict(n=4), dict(beta=0.7), dict(beta=0.0), dict(topology="pancake"),
        dict(epochs=-1), dict(probes=-1), dict(churn_rate=-0.1),
        dict(epoch_period_s=-0.5),
    ])
    def test_rejects_what_the_simulator_cannot_run(self, bad):
        with pytest.raises(ValueError):
            ServeConfig(**bad)

    def test_zero_probes_epochs_and_churn_run(self):
        config = ServeConfig(n=64, epochs=0, churn_rate=0.0, probes=0)
        sim = make_simulator(config)
        assert sim.step().epoch == 1


class TestSnapshot:
    def test_answer_is_deterministic_and_canonical(self):
        snap = build_snapshot(make_simulator(CONFIG).pair, CONFIG.params, 0)
        for source, target in _queries(20, CONFIG.n):
            a = snap.answer(source, target)
            b = snap.answer(source, target)
            assert canonical_response(a) == canonical_response(b)
            assert a["epoch"] == 0 and a["source"] == source
            assert isinstance(a["path"], list)
            assert snap.outcome_of(a) in ("delivered", "corrupted", "unresolved")

    def test_answer_validates_domain(self):
        snap = build_snapshot(make_simulator(CONFIG).pair, CONFIG.params, 0)
        for source, target in [
            (-1, 0.5), (CONFIG.n, 0.5), ("3", 0.5), (True, 0.5), (None, 0.5),
            (0, -0.1), (0, 1.0), (0, "x"), (0, None), (0, False),
        ]:
            with pytest.raises(ValueError):
                snap.answer(source, target)

    def test_copy_on_publish_survives_simulator_mutation(self):
        # the published snapshot must answer identically no matter how far
        # the live simulator has churned past it
        sim = make_simulator(CONFIG)
        snap = build_snapshot(sim.pair, CONFIG.params, 0)
        queries = _queries(30, CONFIG.n)
        before = [canonical_response(snap.answer(s, t)) for s, t in queries]
        for _ in range(3):
            sim.step()
        after = [canonical_response(snap.answer(s, t)) for s, t in queries]
        assert before == after


class TestOracle:
    def test_replay_matches_a_second_replay(self):
        snaps_a = replay_snapshots(CONFIG, 2)
        snaps_b = replay_snapshots(CONFIG, 2)
        assert sorted(snaps_a) == [0, 1, 2]
        for epoch in snaps_a:
            for source, target in _queries(10, CONFIG.n, seed=epoch):
                assert canonical_response(
                    snaps_a[epoch].answer(source, target)
                ) == canonical_response(snaps_b[epoch].answer(source, target))

    def test_replay_rejects_out_of_range_epoch(self):
        with pytest.raises(ValueError):
            replay_snapshots(CONFIG, CONFIG.epochs + 1)
        with pytest.raises(ValueError):
            replay_snapshots(CONFIG, -1)

    def test_verify_flags_tampered_and_broken_lines(self):
        snap = replay_snapshots(CONFIG, 0)[0]
        source, target = _queries(1, CONFIG.n)[0]
        good = canonical_response(snap.answer(source, target))
        tampered = json.loads(good)
        tampered["hops"] = tampered["hops"] + 1
        lines = [
            good,
            canonical_response(tampered),
            "not json at all",
            json.dumps({"error": "boom"}),
        ]
        problems = verify_responses(CONFIG, lines)
        assert len(problems) == 3
        assert any("diverges" in p for p in problems)
        assert any("unparseable" in p for p in problems)
        assert any("error response" in p for p in problems)

    def test_verify_empty_input_is_a_problem(self):
        assert verify_responses(CONFIG, []) == ["no responses to verify"]


class TestLoadReport:
    def test_nearest_rank_percentiles(self):
        report = LoadReport(mode="closed", wall_s=2.0)
        report.latencies_s = [i / 1000.0 for i in range(1, 21)]
        report.responses = ["x"] * 20
        assert report.latency_percentile(0.50) == 0.011
        assert report.latency_percentile(0.95) == 0.019
        assert report.latency_percentile(0.99) == 0.020
        assert report.qps == 10.0
        assert any("QPS" in line for line in report.summary_lines())

    def test_empty_report(self):
        report = LoadReport(mode="open", wall_s=0.0)
        assert report.qps == 0.0
        assert report.latency_percentile(0.99) == 0.0


async def _with_service(config, body, telemetry=None):
    """Run ``body(service)`` against a listening service, then stop it."""
    service = RoutingService(config, telemetry=telemetry)
    ready = asyncio.Event()
    task = asyncio.create_task(service.run(ready))
    await asyncio.wait_for(ready.wait(), timeout=10)
    try:
        return await body(service)
    finally:
        if not task.done():
            await send_stop(service.bound_host, service.bound_port)
            await asyncio.wait_for(task, timeout=10)


class TestService:
    def test_dispatch_protocol_edges(self):
        service = RoutingService(CONFIG)
        line, outcome, epoch = service._dispatch(b'{"op": "status"}\n')
        status = json.loads(line)
        assert status["n"] == CONFIG.n and status["epoch"] == 0
        assert outcome is None and epoch == 0

        line, outcome, _ = service._dispatch(b"}{ not json\n")
        assert "error" in json.loads(line) and outcome == "error"

        line, outcome, _ = service._dispatch(b'{"op": "teleport"}\n')
        assert "unknown op" in json.loads(line)["error"] and outcome == "error"

        line, outcome, _ = service._dispatch(b'[1, 2, 3]\n')
        assert "error" in json.loads(line) and outcome == "error"

        # nested past the recursion limit, yet far under the line limit
        line, outcome, _ = service._dispatch(b"[" * 5000 + b"\n")
        assert "bad request" in json.loads(line)["error"]
        assert outcome == "error"

        line, outcome, _ = service._dispatch(
            b'{"op": "query", "source": -5, "target": 0.5}\n'
        )
        assert "out of range" in json.loads(line)["error"] and outcome == "error"

        line, outcome, _ = service._dispatch(b'{"op": "stop"}\n')
        assert json.loads(line) == {"ok": True, "op": "stop"}
        assert outcome == "stop"

    def test_query_dispatch_matches_snapshot_bytes(self):
        service = RoutingService(CONFIG)
        source, target = _queries(1, CONFIG.n)[0]
        request = json.dumps(
            {"op": "query", "source": source, "target": target}
        ).encode()
        line, outcome, epoch = service._dispatch(request)
        assert line == canonical_response(service.snapshot.answer(source, target))
        assert epoch == 0 and outcome in ("delivered", "corrupted", "unresolved")

    def test_live_service_under_churn_is_byte_identical_to_oracle(self):
        telemetry = TelemetryBuffer()

        async def body(service):
            return await run_load(
                service.bound_host, service.bound_port,
                requests=60, concurrency=4, mode="closed",
                min_epoch=CONFIG.epochs, timeout_s=60,
            )

        report = asyncio.run(_with_service(CONFIG, body, telemetry=telemetry))
        # traffic overlapped every live transition...
        assert report.requests >= 60
        assert max(report.epochs) == CONFIG.epochs
        assert set(report.outcomes) <= {"delivered", "corrupted", "unresolved"}
        # ...every response replays byte-identically offline...
        assert verify_responses(CONFIG, report.responses) == []
        # ...and the telemetry stream saw every query + publish: one
        # serve.publish span per epoch, in order, each with its walls
        requests = telemetry.of_type("serve.request")
        assert len(requests) == report.requests
        publishes = telemetry.of_type("span")
        assert {e["phase"] for e in publishes} == {"serve.publish"}
        assert [e["epoch"] for e in publishes] == list(
            range(1, CONFIG.epochs + 1)
        )
        assert all(e["wall_s"] > 0 and e["peak_rss_mb"] > 0 for e in publishes)

    def test_open_loop_load_and_status_counters(self):
        async def body(service):
            report = await run_load(
                service.bound_host, service.bound_port,
                requests=40, concurrency=4, mode="open", rate=2000.0,
                min_epoch=1, timeout_s=60,
            )
            status = json.loads(
                await asyncio.wait_for(_status(service), timeout=10)
            )
            return report, status

        async def _status(service):
            reader, writer = await asyncio.open_connection(
                service.bound_host, service.bound_port
            )
            writer.write(b'{"op": "status"}\n')
            await writer.drain()
            line = await reader.readline()
            writer.close()
            await writer.wait_closed()
            return line.decode()

        report, status = asyncio.run(_with_service(CONFIG, body))
        assert report.mode == "open" and report.requests >= 40
        assert max(report.epochs) >= 1
        assert verify_responses(CONFIG, report.responses) == []
        assert status["requests"] == report.requests
        assert status["published"] >= 1

    def test_run_load_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown load mode"):
            asyncio.run(run_load("127.0.0.1", 1, mode="sideways"))

    def test_oversized_request_line_is_answered_then_closed(self):
        # one line past asyncio's 64 KiB readline limit: the usual
        # bad-request error and its serve.request event, then a closed
        # connection, because the reader lost its place in the stream
        telemetry = TelemetryBuffer()

        async def body(service):
            reader, writer = await asyncio.open_connection(
                service.bound_host, service.bound_port
            )
            writer.write(b'{"pad": "' + b"x" * (1 << 16) + b'"}\n')
            await writer.drain()
            reply = await asyncio.wait_for(reader.readline(), timeout=10)
            try:
                tail = await asyncio.wait_for(reader.read(), timeout=10)
            except ConnectionResetError:
                tail = b""  # closed with part of the line unread
            writer.close()
            return reply, tail

        reply, tail = asyncio.run(
            _with_service(FROZEN, body, telemetry=telemetry)
        )
        assert json.loads(reply)["error"].startswith("bad request:")
        assert tail == b""
        (event,) = telemetry.of_type("serve.request")
        assert event["outcome"] == "error"

    def test_open_loop_latency_counts_a_late_wakeup(self, monkeypatch):
        # open-loop latency runs from the scheduled arrival: a generator
        # that wakes late has delayed the request, and the delay must show
        overshoot = 0.25
        slept = []
        real_sleep = asyncio.sleep

        async def late_sleep(delay, *args, **kwargs):
            slept.append(delay)
            await real_sleep(delay + overshoot)

        monkeypatch.setattr("repro.serve.load.asyncio.sleep", late_sleep)

        async def body(service):
            return await run_load(
                service.bound_host, service.bound_port,
                requests=4, concurrency=2, mode="open", rate=50.0,
                timeout_s=60,
            )

        report = asyncio.run(_with_service(FROZEN, body))
        assert slept  # the arrival schedule made the generator wait
        late = [lat for lat in report.latencies_s if lat >= overshoot]
        assert len(late) >= len(slept)
