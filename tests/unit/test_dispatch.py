"""Unit tests: the sharded work-unit dispatcher (repro.sim.dispatch).

Covers the wire codec (self-contained units, payload hashing), the spool
broker's lease/retry semantics, and the reassembler's
acceptance contract: first-write-wins idempotency, stale/corrupt
rejection, and loud conflict detection.  A cheap module-level toy spec
keeps these tests millisecond-scale; the real-experiment differential
sweep lives in tests/property/test_dispatch_equivalence.py.
"""

import json

import numpy as np
import pytest

from repro.sim.dispatch import (
    ACCEPTED,
    CORRUPT,
    DUPLICATE,
    OUTVOTED,
    STALE,
    VOTE,
    DispatchError,
    IncompleteSweepError,
    PayloadConflictError,
    Reassembler,
    SpoolBroker,
    VirtualClock,
    WorkResult,
    WorkUnit,
    equivocate_result,
    execute_unit,
    payload_hash,
    sweep_fingerprint,
    units_for_request,
)
from repro.sim.sweep import SweepSpec, run_sweep


def toy_cell(rng, *, x, scale):
    # one draw per cell: deterministic in the coordinate-keyed stream
    return [[x, scale, f"{rng.random():.12f}"]]


def build_toy_spec(seed=0, fast=True, xs=(1, 2, 3), scale=2):
    return SweepSpec(
        experiment="TOY",
        title="toy sweep",
        headers=["x", "scale", "u"],
        cell=toy_cell,
        axes=(("x", tuple(xs)),),
        context=dict(scale=scale),
        seed=seed,
    )


TOY = {"TOY": build_toy_spec}


def toy_units(seed=0, overrides=None):
    return units_for_request("TOY", seed, True, overrides or {}, registry=TOY)


def executed(units, spec):
    return [execute_unit(u, spec=spec, worker="t") for u in units]


def toy_spool(root, clock=None, **manifest):
    """The toy sweep staged in a fresh spool (``manifest`` overrides fields)."""
    spec, units = toy_units()
    broker = SpoolBroker(root, clock=None if clock is None else clock.now)
    broker.initialize(
        {
            "experiment": "TOY", "seed": 0, "fast": True, "overrides": {},
            "fingerprint": units[0].fingerprint,
            "n_cells": len(units), "lease_timeout": 10.0, **manifest,
        },
        units,
    )
    return spec, units, broker


def spool_events(broker, type):
    from repro.telemetry import read_events

    return [
        e for e in read_events(broker.root / "events.log", strict=True)
        if e["type"] == type
    ]


class TestWire:
    def test_unit_json_round_trip(self):
        spec, units = toy_units(overrides={"xs": (4, 5)})
        clone = WorkUnit.from_json(units[1].to_json())
        assert clone == WorkUnit(
            experiment="TOY", seed=0, fast=True, overrides={"xs": [4, 5]},
            index=1, n_cells=2, fingerprint=units[0].fingerprint,
        )
        # unit JSON carrying the old per-unit kernel hint still decodes
        legacy = {**json.loads(units[1].to_json()), "kernel": "serial"}
        assert WorkUnit.from_json(json.dumps(legacy)) == clone

    def test_result_json_round_trip(self):
        spec, units = toy_units()
        result = execute_unit(units[0], spec=spec, worker="w9")
        clone = WorkResult.from_json(result.to_json())
        assert clone == result

    def test_malformed_unit_raises(self):
        with pytest.raises(DispatchError, match="malformed"):
            WorkUnit.from_json('{"experiment": "TOY"}')
        with pytest.raises(DispatchError, match="malformed"):
            WorkResult.from_json("{not json")

    def test_unknown_experiment_raises(self):
        with pytest.raises(DispatchError, match="unknown experiment"):
            units_for_request("NOPE", 0, True, {}, registry=TOY)

    def test_index_outside_grid_raises(self):
        spec, units = toy_units()
        bad = WorkUnit(
            experiment="TOY", seed=0, fast=True, overrides={}, index=99,
            n_cells=3, fingerprint=units[0].fingerprint,
        )
        with pytest.raises(DispatchError, match="outside"):
            execute_unit(bad, spec=spec)

    def test_execution_is_deterministic(self):
        spec, units = toy_units()
        a = execute_unit(units[2], spec=spec)
        b = execute_unit(units[2], spec=spec)
        assert a.payload == b.payload
        assert a.payload_sha256 == b.payload_sha256

    def test_registry_rebuild_matches_spec_shortcut(self):
        # the worker-side rebuild from (experiment, seed, fast, overrides)
        # must reproduce exactly what the serve-side spec computes
        spec, units = toy_units(seed=7, overrides={"xs": [10, 11], "scale": 3})
        direct = execute_unit(units[0], spec=spec)
        rebuilt = execute_unit(units[0], registry=TOY)
        assert direct.payload == rebuilt.payload

    def test_payload_hash_detects_any_change(self):
        payload = {"rows": [[1, 2, "a"]], "notes": [], "aux": None}
        h = payload_hash(payload)
        assert payload_hash({**payload, "aux": 0}) != h
        assert payload_hash({"rows": [[1, 2, "b"]], "notes": [], "aux": None}) != h
        # key order is canonicalized away
        assert payload_hash(dict(reversed(list(payload.items())))) == h

    def test_fingerprint_tracks_request_not_kernel(self):
        base = sweep_fingerprint("TOY", 0, True, {})
        assert sweep_fingerprint("TOY", 1, True, {}) != base
        assert sweep_fingerprint("TOY", 0, False, {}) != base
        assert sweep_fingerprint("TOY", 0, True, {"xs": [1]}) != base
        # every unit carries its request's identity and nothing else
        _, units = toy_units()
        assert {u.fingerprint for u in units} == {base}

    @pytest.mark.parametrize("experiment", ["E4", "E8", "E12"])
    def test_single_cell_trajectories_reassemble_exactly(self, experiment):
        # these cells once needed a keyword the dispatcher had to inject
        # (a unit without it failed every cell): each unit, rebuilt from
        # the registry alone, must reassemble to run_experiment's table
        from repro.experiments import run_experiment

        spec, units = units_for_request(experiment, 0, True, {})
        reasm = Reassembler(spec, units[0].fingerprint)
        for unit in units:
            assert reasm.accept(execute_unit(unit, worker="w")) == ACCEPTED
        local = run_experiment(experiment, seed=0, fast=True)
        assert reasm.table().to_json() == local.to_json()
        assert reasm.table().render() == local.render()

    def test_non_jsonable_payload_raises_clearly(self):
        def opaque_cell(rng, *, x, scale):
            return [[object()]]

        spec = SweepSpec(
            experiment="TOY", title="t", headers=["h"], cell=opaque_cell,
            axes=(("x", (1,)),), context=dict(scale=1),
        )
        unit = WorkUnit(
            experiment="TOY", seed=0, fast=True, overrides={}, index=0,
            n_cells=1, fingerprint="",  # no identity claim to verify
        )
        with pytest.raises(TypeError, match="JSON-serializable"):
            execute_unit(unit, spec=spec)

    def test_worker_refuses_foreign_fingerprint(self):
        # a unit whose fingerprint does not re-derive locally means the
        # worker runs different repro code than the serve side — it must
        # refuse, not stamp wrong-version rows with a passing identity
        spec, units = toy_units()
        from dataclasses import replace

        drifted = replace(units[0], fingerprint="0" * 20)
        with pytest.raises(DispatchError, match="differs"):
            execute_unit(drifted, spec=spec)


class TestReassembler:
    def _fresh(self, **kw):
        spec, units = toy_units(**kw)
        return spec, units, Reassembler(spec, units[0].fingerprint)

    def test_accept_assemble_matches_run_sweep(self):
        spec, units, reasm = self._fresh()
        for r in executed(units, spec):
            assert reasm.accept(r) == ACCEPTED
        assert reasm.complete() and reasm.missing() == []
        assert reasm.table().to_json() == run_sweep(spec).to_json()

    def test_duplicate_is_idempotent(self):
        spec, units, reasm = self._fresh()
        result = execute_unit(units[0], spec=spec)
        assert reasm.accept(result) == ACCEPTED
        assert reasm.accept(result) == DUPLICATE
        assert reasm.accepted_count() == 1

    def test_stale_fingerprint_rejected(self):
        spec, units, reasm = self._fresh()
        result = execute_unit(units[0], spec=spec)
        stale = WorkResult(
            fingerprint="0" * 20, index=result.index,
            payload=result.payload, payload_sha256=result.payload_sha256,
        )
        assert reasm.accept(stale) == STALE
        assert reasm.accepted_count() == 0
        assert reasm.rejected[0][0] == STALE

    def test_out_of_grid_index_rejected_as_stale(self):
        spec, units, reasm = self._fresh()
        result = execute_unit(units[0], spec=spec)
        rogue = WorkResult(
            fingerprint=units[0].fingerprint, index=42,
            payload=result.payload, payload_sha256=result.payload_sha256,
        )
        assert reasm.accept(rogue) == STALE

    def test_corrupt_payload_rejected(self):
        spec, units, reasm = self._fresh()
        result = execute_unit(units[0], spec=spec)
        tampered = WorkResult(
            fingerprint=result.fingerprint, index=result.index,
            payload={**result.payload, "rows": [["tampered"]]},
            payload_sha256=result.payload_sha256,  # stale claim
        )
        assert reasm.accept(tampered) == CORRUPT
        # the honest result still lands afterwards
        assert reasm.accept(result) == ACCEPTED

    def test_verified_divergent_duplicate_is_a_conflict(self):
        spec, units, reasm = self._fresh()
        result = execute_unit(units[0], spec=spec)
        assert reasm.accept(result) == ACCEPTED
        wrong_payload = {**result.payload, "rows": [["wrong", 0, "answer"]]}
        liar = WorkResult(
            fingerprint=result.fingerprint, index=result.index,
            payload=wrong_payload,
            payload_sha256=payload_hash(wrong_payload),  # self-consistent
            worker="byzantine",
        )
        with pytest.raises(PayloadConflictError, match="byzantine"):
            reasm.accept(liar)

    def test_incomplete_table_raises_with_missing_indexes(self):
        spec, units, reasm = self._fresh()
        reasm.accept(execute_unit(units[1], spec=spec))
        with pytest.raises(IncompleteSweepError, match=r"\[0, 2\]"):
            reasm.table()


class TestSpoolBroker:
    def _spool(self, tmp_path, clock=None):
        return toy_spool(tmp_path / "spool", clock=clock)

    def test_initialize_and_claim(self, tmp_path):
        spec, units, broker = self._spool(tmp_path)
        assert broker.counts() == {"pending": 3, "leased": 0, "results": 0}
        unit = broker.lease("w")
        assert unit.index == 0  # lowest index first
        assert broker.counts() == {"pending": 2, "leased": 1, "results": 0}

    def test_two_brokers_cannot_claim_the_same_unit(self, tmp_path):
        spec, units, broker_a = self._spool(tmp_path)
        broker_b = SpoolBroker(broker_a.root, clock=broker_a.clock)
        claimed = [broker_a.lease("a"), broker_b.lease("b"), broker_a.lease("a"),
                   broker_b.lease("b")]
        indexes = [u.index for u in claimed if u is not None]
        assert sorted(indexes) == [0, 1, 2]  # every unit claimed exactly once
        assert broker_a.lease("a") is None

    def test_expired_lease_requeued_by_any_participant(self, tmp_path):
        clock = VirtualClock()
        spec, units, broker = self._spool(tmp_path, clock=clock)
        broker.lease("doomed")
        clock.advance(11.0)
        other = SpoolBroker(broker.root, clock=clock.now)
        assert other.requeue_expired() == [0]
        assert other.counts()["pending"] == 3

    def test_complete_first_write_wins(self, tmp_path):
        spec, units, broker = self._spool(tmp_path)
        unit = broker.lease("w")
        result = execute_unit(unit, spec=spec, worker="w")
        assert broker.complete(result) == ACCEPTED
        impostor = WorkResult(
            fingerprint=result.fingerprint, index=result.index,
            payload={"rows": [["late"]], "notes": [], "aux": None},
            payload_sha256="feed", worker="late",
        )
        assert broker.complete(impostor) == DUPLICATE
        kept = WorkResult.from_json(broker._result_path(unit.index).read_text())
        assert kept.payload == result.payload  # the first write survived

    def test_late_duplicate_after_retry_is_idempotent(self, tmp_path):
        clock = VirtualClock()
        spec, units, broker = self._spool(tmp_path, clock=clock)
        stalled = broker.lease("stalled")
        clock.advance(11.0)  # past the 10s lease: the next claim requeues it
        retry = broker.lease("fresh")
        assert retry.index == stalled.index and retry.attempt == 1
        fresh = execute_unit(retry, spec=spec, worker="fresh")
        assert broker.complete(fresh) == ACCEPTED
        # the stalled worker finally reports the same deterministic payload
        late = execute_unit(stalled, spec=spec, worker="stalled")
        assert broker.complete(late) == DUPLICATE

    def test_serve_rejects_bad_lease_timeout_before_writing(self, tmp_path):
        # a non-positive lease timeout would let any participant requeue
        # a slot the instant it is claimed
        from repro.sim.dispatch import serve

        spool = tmp_path / "spool"
        for bad in (0.0, -5.0):
            with pytest.raises(ValueError, match="lease_timeout"):
                serve("TOY", spool=spool, registry=TOY, lease_timeout=bad)
        assert not spool.exists()

    def test_collect_rejects_and_requeues_corrupt_result(self, tmp_path):
        spec, units, broker = self._spool(tmp_path)
        unit = broker.lease("w")
        result = execute_unit(unit, spec=spec)
        broker.complete(result)
        # torn write: truncate the result file mid-JSON
        path = broker._result_path(unit.index)
        path.write_text(result.to_json()[: len(result.to_json()) // 2])
        reasm = Reassembler(spec, units[0].fingerprint)
        counts = broker.sweep_results(reasm)
        assert counts[CORRUPT] == 1
        assert not path.exists()
        # the unit is claimable again, from its immutable original
        assert broker.counts()["pending"] == 3

    def test_collect_rejects_stale_result(self, tmp_path):
        spec, units, broker = self._spool(tmp_path)
        unit = broker.lease("w")
        result = execute_unit(unit, spec=spec)
        stale = WorkResult(
            fingerprint="0" * 20, index=result.index,
            payload=result.payload, payload_sha256=result.payload_sha256,
        )
        broker.complete(stale)
        reasm = Reassembler(spec, units[0].fingerprint)
        counts = broker.sweep_results(reasm)
        assert counts[STALE] == 1
        assert broker.counts()["pending"] == 3

    def test_reserve_is_idempotent_for_completed_shards(self, tmp_path):
        spec, units, broker = self._spool(tmp_path)
        unit = broker.lease("w")
        broker.complete(execute_unit(unit, spec=spec))
        manifest = broker.load_manifest()
        enqueued = broker.initialize(manifest, units)
        assert enqueued == 0  # 2 still pending, 1 completed: nothing re-added
        assert broker.counts() == {"pending": 2, "leased": 0, "results": 1}

    def test_different_fingerprint_needs_force(self, tmp_path):
        spec, units, broker = self._spool(tmp_path)
        manifest = broker.load_manifest()
        alien = dict(manifest, fingerprint="different-generation")
        with pytest.raises(DispatchError, match="force"):
            broker.initialize(alien, units)
        enqueued = broker.initialize(alien, units, force=True)
        assert enqueued == 3  # wiped and re-enqueued under the new identity

    def test_force_wipes_completed_shards(self, tmp_path):
        spec, units, broker = self._spool(tmp_path)
        broker.complete(execute_unit(broker.lease("w"), spec=spec))
        manifest = broker.load_manifest()
        enqueued = broker.initialize(manifest, units, force=True)
        assert enqueued == 3
        assert broker.counts() == {"pending": 3, "leased": 0, "results": 0}

    def test_missing_manifest_is_a_clear_error(self, tmp_path):
        with pytest.raises(DispatchError, match="manifest"):
            SpoolBroker(tmp_path / "nowhere").load_manifest()

    def test_json_table_round_trip(self, tmp_path):
        spec, units, broker = self._spool(tmp_path)
        table = run_sweep(spec)
        broker.store_table(table.to_json())
        assert broker.load_table() == table.to_json()
        assert json.loads(broker.load_table())["experiment"] == "TOY"


class TestForeignSpoolInput:
    def test_out_of_grid_result_file_is_dropped_not_fatal(self, tmp_path):
        # a result file for an index the grid does not have (copied from
        # another spool, or a leftover) is Byzantine input: it must be
        # rejected and deleted, never crash the sweep with a requeue of a
        # unit that does not exist
        spec, units = units_for_request("TOY", 0, True, {}, registry=TOY)
        broker = SpoolBroker(tmp_path / "spool")
        broker.initialize(
            {
                "experiment": "TOY", "seed": 0, "fast": True, "overrides": {},
                "fingerprint": units[0].fingerprint,
                "n_cells": len(units), "lease_timeout": 10.0,
            },
            units,
        )
        real = execute_unit(units[0], spec=spec)
        foreign_payload = dict(real.payload)
        foreign = WorkResult(
            fingerprint=units[0].fingerprint, index=7,
            payload=foreign_payload,
            payload_sha256=payload_hash(foreign_payload),
        )
        path = broker._result_path(7)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(foreign.to_json())
        reasm = Reassembler(spec, units[0].fingerprint)
        counts = broker.sweep_results(reasm)  # must not raise
        assert counts[STALE] == 1
        assert not path.exists()
        assert broker.counts()["pending"] == len(units)  # nothing phantom-requeued


class TestBrokerTelemetry:
    """The spool's events.log carries the typed unit lifecycle."""

    def test_spool_lifecycle_events(self, tmp_path):
        clock = VirtualClock()
        spec, units, broker = toy_spool(tmp_path / "spool", clock=clock)
        unit = broker.lease("wA")
        clock.advance(2.5)
        broker.complete(execute_unit(unit, spec=spec, worker="wA"))
        (lease,) = spool_events(broker, "dispatch.lease")
        assert lease["index"] == unit.index and lease["worker"] == "wA"
        assert lease["attempt"] == 1
        assert lease["fingerprint"] == unit.fingerprint
        (complete,) = spool_events(broker, "dispatch.complete")
        assert complete["verdict"] == "accepted"
        assert complete["lease_latency_s"] == pytest.approx(2.5)

    def test_spool_expiry_and_rejection_events(self, tmp_path):
        from repro.sim.dispatch.chaos import corrupt_result

        clock = VirtualClock()
        spec, units, broker = toy_spool(tmp_path / "spool", clock=clock)
        doomed = broker.lease("doomed")
        clock.advance(11.0)
        broker.requeue_expired()
        (requeue,) = spool_events(broker, "dispatch.requeue")
        assert requeue["index"] == doomed.index
        assert requeue["reason"] == "lease_expired"
        unit = broker.lease("liar")
        broker.complete(corrupt_result(execute_unit(unit, spec=spec, worker="liar")))
        broker.sweep_results(Reassembler(spec, units[0].fingerprint))
        (reject,) = spool_events(broker, "dispatch.reject")
        assert reject["verdict"] == "corrupt"
        assert spool_events(broker, "dispatch.requeue")[-1]["reason"] == "corrupt"

    def test_spool_events_log_is_strict_jsonl(self, tmp_path):
        from repro.telemetry import read_events

        spec, units, broker = toy_spool(tmp_path / "spool")
        for _ in units:
            unit = broker.lease("w")
            broker.complete(execute_unit(unit, spec=spec, worker="w"))
        events = read_events(tmp_path / "spool" / "events.log", strict=True)
        types = [e["type"] for e in events]
        assert types.count("dispatch.serve") == 1
        assert types.count("dispatch.lease") == len(units)
        assert types.count("dispatch.complete") == len(units)
        completes = [e for e in events if e["type"] == "dispatch.complete"]
        assert all(e["verdict"] == "accepted" for e in completes)
        assert all("lease_latency_s" in e for e in completes)

    def test_work_spans_each_executed_unit(self, tmp_path):
        from repro.analysis.telemetry_report import summarize_events
        from repro.sim.dispatch import serve, work
        from repro.telemetry import read_events

        report = serve("TOY", spool=tmp_path / "spool", registry=TOY)
        assert work(report.spool, worker="w1", registry=TOY, poll=0.0) == 3
        events = read_events(tmp_path / "spool" / "events.log", strict=True)
        spans = [e for e in events if e["type"] == "span"]
        assert {e["phase"] for e in spans} == {"dispatch.execute"}
        assert sorted(e["index"] for e in spans) == [0, 1, 2]
        assert {e["worker"] for e in spans} == {"w1"}
        assert all(e["wall_s"] >= 0 and e["peak_rss_mb"] > 0 for e in spans)
        # each span lands before its unit's completion, from the same loop
        for e in spans:
            complete = next(
                c for c in events
                if c["type"] == "dispatch.complete" and c["index"] == e["index"]
            )
            assert events.index(e) < events.index(complete)
        summary = summarize_events(events)
        assert summary["dispatch"]["executes"] == 3
        assert summary["spans"]["dispatch.execute"]["count"] == 3



class TestQuorumReassembler:
    """Quorum mode: verified results are votes, majority hash settles."""

    def _fresh(self, replicas=3, emit=None, **kw):
        spec, units = toy_units(**kw)
        return spec, units, Reassembler(
            spec, units[0].fingerprint, replicas=replicas, emit=emit
        )

    def test_replicas_must_be_positive(self):
        spec, units = toy_units()
        with pytest.raises(ValueError, match="replicas"):
            Reassembler(spec, units[0].fingerprint, replicas=0)

    def test_majority_of_distinct_workers_settles(self):
        spec, units, reasm = self._fresh()
        a = execute_unit(units[0], spec=spec, worker="w1")
        b = execute_unit(units[0], spec=spec, worker="w2")
        assert reasm.accept(a) == VOTE
        assert not reasm.is_accepted(0)
        assert reasm.accept(b) == ACCEPTED  # 2 of 3 = majority
        assert reasm.is_accepted(0)

    def test_one_worker_counts_once_across_replica_slots(self):
        from dataclasses import replace

        spec, units, reasm = self._fresh()
        a = execute_unit(units[0], spec=spec, worker="w1")
        assert reasm.accept(a) == VOTE
        assert reasm.accept(a) == DUPLICATE  # literal resubmission
        # the same worker completing a *different* replica slot of the
        # same index is still one voter — a quorum needs distinct workers
        assert reasm.accept(replace(a, replica=1)) == DUPLICATE
        assert reasm.vote_counts(0) == {a.payload_sha256: 1}
        assert reasm.voters(0) == {"w1"}

    def test_equivocating_worker_latest_vote_stands(self):
        spec, units, reasm = self._fresh()
        honest = execute_unit(units[0], spec=spec, worker="liar")
        lie = equivocate_result(honest, salt="x")
        assert reasm.accept(lie) == VOTE
        # the same worker now swears to a different hash: observed
        # equivocation — latest vote stands, suspicion grows
        assert reasm.accept(honest) == VOTE
        assert reasm.suspicion["liar"] == 1
        assert reasm.vote_counts(0) == {honest.payload_sha256: 1}
        other = execute_unit(units[0], spec=spec, worker="w2")
        assert reasm.accept(other) == ACCEPTED

    def test_minority_is_outvoted_not_fatal(self):
        spec, units, reasm = self._fresh()
        lie = equivocate_result(
            execute_unit(units[0], spec=spec, worker="liar"), salt="liar"
        )
        assert reasm.accept(lie) == VOTE
        assert reasm.accept(execute_unit(units[0], spec=spec, worker="w1")) == VOTE
        assert reasm.accept(execute_unit(units[0], spec=spec, worker="w2")) == ACCEPTED
        assert reasm.suspicion["liar"] == 1  # outvoted at settle time
        # a late minority report against the settled index: survivable,
        # never the PayloadConflictError the r=1 path raises
        late = equivocate_result(
            execute_unit(units[0], spec=spec, worker="late"), salt="late"
        )
        assert reasm.accept(late) == OUTVOTED
        assert reasm.suspicion["late"] == 1
        for u in units[1:]:
            reasm.accept(execute_unit(u, spec=spec, worker="w1"))
            reasm.accept(execute_unit(u, spec=spec, worker="w2"))
        assert reasm.table().to_json() == run_sweep(spec).to_json()

    def test_quorum_telemetry_trail(self):
        events = []
        spec, units, reasm = self._fresh(
            emit=lambda type, **f: events.append({"type": type, **f})
        )
        lie = equivocate_result(
            execute_unit(units[0], spec=spec, worker="liar"), salt="liar"
        )
        reasm.accept(lie)
        reasm.accept(execute_unit(units[0], spec=spec, worker="w1"))
        reasm.accept(execute_unit(units[0], spec=spec, worker="w2"))
        quorum = [e for e in events if e["type"] == "dispatch.quorum"]
        assert [e["outcome"] for e in quorum] == ["vote", "vote", "settled"]
        assert sum(quorum[-1]["votes"].values()) == 3  # per-hash counts
        suspects = [e for e in events if e["type"] == "dispatch.suspect"]
        assert suspects == [{"type": "dispatch.suspect", "worker": "liar",
                             "suspicion": 1}]


class TestSpoolQuorum:
    def _spool(self, tmp_path):
        return toy_spool(tmp_path / "spool", replicas=3)

    def test_replica_slots_lease_with_liveness_fallback(self, tmp_path):
        spec, units, broker = self._spool(tmp_path)
        # 3 units x 3 replicas; a lone worker still drains every slot:
        # prefer-distinct passes over indexes it already voted on, but
        # never refuses them outright
        drained = []
        for _ in range(9):
            unit = broker.lease("solo")
            assert unit is not None
            broker.complete(execute_unit(unit, spec=spec, worker="solo"))
            drained.append((unit.index, unit.replica))
        assert sorted(drained) == [(i, k) for i in range(3) for k in range(3)]
        assert broker.lease("solo") is None

    def test_serve_rejects_nonpositive_replicas_before_writing(self, tmp_path):
        from repro.sim.dispatch import serve

        spool = tmp_path / "spool"
        for bad in (0, -1):
            with pytest.raises(ValueError, match="replicas"):
                serve("TOY", spool=spool, registry=TOY, replicas=bad)
        assert not spool.exists()

    def test_slot_name_round_trip(self):
        for index, replica, attempt in [
            (0, 0, 0), (42, 1, 0), (7, 0, 3), (99999, 12, 34),
        ]:
            name = SpoolBroker._slot_name(index, replica, attempt)
            assert SpoolBroker._parse_slot(name) == (index, replica, attempt)
        # replica 0 / first lease keep the bare pre-quorum name
        assert SpoolBroker._slot_name(42) == "unit-00042.json"
        assert SpoolBroker._parse_slot("unit-00042.json") == (42, 0, 0)

    def test_result_name_round_trip(self, tmp_path):
        broker = SpoolBroker(tmp_path / "s")
        assert broker._result_path(3).name == "result-00003.json"
        assert broker._result_path(3, 2).name == "result-00003.r2.json"
        assert SpoolBroker._parse_result("result-00003.json") == (3, 0)
        assert SpoolBroker._parse_result("result-00003.r2.json") == (3, 2)

    def test_replica_slots_on_disk(self, tmp_path):
        spec, units, broker = self._spool(tmp_path)
        assert broker.counts() == {"pending": 9, "leased": 0, "results": 0}
        names = {p.name for p in (broker.root / "pending").iterdir()}
        assert "unit-00000.json" in names  # replica 0: bare legacy name
        assert "unit-00000.r1.json" in names
        assert "unit-00000.r2.json" in names

    def test_reserve_only_fills_missing_replica_slots(self, tmp_path):
        spec, units, broker = self._spool(tmp_path)
        unit = broker.lease("w")
        broker.complete(execute_unit(unit, spec=spec, worker="w"))
        enqueued = broker.initialize(broker.load_manifest(), units)
        assert enqueued == 0  # 8 live slots + 1 result: nothing re-added

    def test_quorum_settles_through_the_spool(self, tmp_path):
        spec, units, broker = self._spool(tmp_path)
        brokers = {w: SpoolBroker(broker.root) for w in ("w1", "w2", "w3")}
        reasm = Reassembler(spec, units[0].fingerprint, replicas=3)
        for _ in range(30):
            for w, b in brokers.items():
                unit = b.lease(w)
                if unit is not None:
                    b.complete(execute_unit(unit, spec=spec, worker=w))
            broker.sweep_results(reasm)
            if reasm.complete():
                break
        assert reasm.complete()
        assert reasm.table().to_json() == run_sweep(spec).to_json()

    def test_legacy_r1_spool_still_collects(self, tmp_path):
        # a spool served before quorum mode existed: bare slot names and a
        # manifest with no replicas/max_attempts keys must still collect
        spec, units = toy_units()
        broker = SpoolBroker(tmp_path / "spool")
        broker.initialize(
            {
                "experiment": "TOY", "seed": 0, "fast": True, "overrides": {},
                "kernel": "vectorized", "fingerprint": units[0].fingerprint,
                "n_cells": len(units), "lease_timeout": 10.0,
            },
            units,
        )
        for _ in units:
            broker.complete(execute_unit(broker.lease("w"), spec=spec, worker="w"))
        from repro.sim.dispatch import collect

        table = collect(broker.root, registry=TOY)
        assert table.to_json() == run_sweep(spec).to_json()

    def test_legacy_r1_spool_drains_through_work(self, tmp_path):
        # the worker role reads the same manifest: no replicas key, width 1
        from repro.sim.dispatch import collect, work

        spec, units = toy_units()
        broker = SpoolBroker(tmp_path / "spool")
        broker.initialize(
            {
                "experiment": "TOY", "seed": 0, "fast": True, "overrides": {},
                "fingerprint": units[0].fingerprint,
                "n_cells": len(units), "lease_timeout": 10.0,
            },
            units,
        )
        assert work(broker.root, worker="w", registry=TOY, poll=0.0) == 3
        table = collect(broker.root, registry=TOY)
        assert table.to_json() == run_sweep(spec).to_json()

    def test_spool_tiebreaker_materialized_when_tally_stalls(self, tmp_path):
        spec, units, broker = self._spool(tmp_path)
        reasm = Reassembler(spec, units[0].fingerprint, replicas=3,
                            emit=broker.emit)
        # drain every replica slot of index 0 into a 1/1/1 tally
        leased = []
        while True:
            unit = broker.lease("any")
            if unit is None:
                break
            leased.append(unit)
        for unit, (worker, salt) in zip(
            [u for u in leased if u.index == 0],
            [("liarA", "A"), ("liarB", "B"), ("w", None)],
        ):
            result = execute_unit(unit, spec=spec, worker=worker)
            if salt:
                result = equivocate_result(result, salt=salt)
            broker.complete(result)
        broker.sweep_results(reasm)
        assert not reasm.is_accepted(0)
        pending = {
            SpoolBroker._parse_slot(p.name)[:2]
            for p in (broker.root / "pending").iterdir()
        }
        assert (0, 3) in pending  # the tiebreaker slot, above every replica
        from repro.telemetry import read_events

        quorum = [
            e for e in read_events(broker.root / "events.log")
            if e["type"] == "dispatch.quorum"
        ]
        assert any(e["outcome"] == "tie" and e["index"] == 0 for e in quorum)


class TestSpoolRetryBugs:
    """Regressions for the three spool broker bugs this PR fixes."""

    def _spool(self, tmp_path, clock, max_attempts=None):
        return toy_spool(
            tmp_path / "spool", clock=clock, replicas=1,
            max_attempts=max_attempts,
        )

    def test_expiry_honours_max_attempts(self, tmp_path):
        # bug 1: the spool used to requeue a crash-looping unit forever,
        # ignoring the manifest's max_attempts entirely
        clock = VirtualClock()
        spec, units, broker = self._spool(tmp_path, clock, max_attempts=2)
        first = broker.lease("crashloop")
        clock.advance(11.0)
        assert broker.requeue_expired() == [first.index]
        again = broker.lease("crashloop")
        assert again.index == first.index and again.attempt == 1
        clock.advance(11.0)
        # a second expiry would grant lease #3 > max_attempts=2: poisoned
        assert broker.requeue_expired() == []
        marker = broker.root / "poison" / "unit-00000.a2.json"
        assert marker.exists()
        assert broker.counts() == {"pending": 2, "leased": 0, "results": 0}
        from repro.telemetry import read_events

        poison = [
            e for e in read_events(broker.root / "events.log")
            if e["type"] == "dispatch.poison"
        ]
        assert len(poison) == 1
        assert poison[0]["index"] == 0 and poison[0]["attempts"] == 2

    def test_rejection_requeue_honours_max_attempts(self, tmp_path):
        # bug 1, collect side: a persistently-corrupt result must run out
        # of retries too, not only an expiring lease
        clock = VirtualClock()
        spec, units, broker = self._spool(tmp_path, clock, max_attempts=1)
        unit = broker.lease("liar")
        result = execute_unit(unit, spec=spec, worker="liar")
        broker.complete(WorkResult(
            fingerprint=result.fingerprint, index=result.index,
            payload={**result.payload, "rows": [["x"]]},
            payload_sha256=result.payload_sha256, worker="liar",
        ))
        reasm = Reassembler(spec, units[0].fingerprint)
        counts = broker.sweep_results(reasm)
        assert counts[CORRUPT] == 1
        # budget of 1 already spent: poisoned, not re-staged
        assert broker.counts()["pending"] == 2
        assert (broker.root / "poison" / "unit-00000.a1.json").exists()

    def test_expired_lease_with_result_is_not_requeued(self, tmp_path):
        # bug 2: a worker that died between linking its result and
        # unlinking its lease used to get its settled work re-executed
        clock = VirtualClock()
        spec, units, broker = self._spool(tmp_path, clock)
        unit = broker.lease("w")
        result = execute_unit(unit, spec=spec, worker="w")
        # simulate the mid-complete death: result on disk, lease dangling
        broker._result_path(unit.index).write_text(result.to_json())
        clock.advance(11.0)
        assert broker.requeue_expired() == []
        assert broker.counts() == {"pending": 2, "leased": 0, "results": 1}
        reasm = Reassembler(spec, units[0].fingerprint)
        assert broker.sweep_results(reasm)[ACCEPTED] == 1

    def test_utime_failure_falls_back_to_recorded_lease_start(
        self, tmp_path, monkeypatch
    ):
        # bug 3: when utime failed at claim time, the slot mtime stayed at
        # wall-clock rename time while expiry compared it to the injected
        # clock — the lease could never expire (or expired instantly)
        import os as _os

        clock = VirtualClock(start=5_000.0)
        spec, units, broker = self._spool(tmp_path, clock)

        def broken_utime(*args, **kwargs):
            raise OSError("utime not supported here")

        monkeypatch.setattr(_os, "utime", broken_utime)
        unit = broker.lease("w")
        slot = broker.root / "leased" / SpoolBroker._slot_name(unit.index)
        data = json.loads(slot.read_text())
        assert data["lease_start"] == 5_000.0  # recorded inside the slot
        assert broker._lease_start(slot) == 5_000.0  # preferred over mtime
        monkeypatch.undo()
        clock.advance(9.0)
        assert broker.requeue_expired() == []  # not expired yet on our clock
        clock.advance(2.0)
        assert broker.requeue_expired() == [unit.index]


class TestPoisonAntiLivelock:
    def test_persistent_corruptor_cannot_livelock_work(self, tmp_path):
        # regression: before max_attempts reached the spool, a worker
        # whose every completion is corrupt would requeue-loop forever
        from repro.sim.dispatch import serve, work
        from repro.sim.dispatch.chaos import corrupt_result

        class AlwaysCorrupt:
            def apply(self, unit, result, broker):
                broker.complete(corrupt_result(result))
                return None

        report = serve(
            "TOY", spool=tmp_path / "spool", registry=TOY,
            lease_timeout=5.0, max_attempts=2,
        )
        with pytest.raises(DispatchError, match="wedged"):
            work(report.spool, worker="liar", chaos=AlwaysCorrupt(),
                 registry=TOY, poll=0.0)
        from repro.telemetry import read_events

        events = read_events(tmp_path / "spool" / "events.log")
        poisoned = {
            e["index"] for e in events if e["type"] == "dispatch.poison"
        }
        assert poisoned == {0, 1, 2}  # every unit retired loudly
