"""Integration: ``repro dispatch serve/work/collect`` across OS processes.

The acceptance scenario for the sharded dispatcher: the sweep is served
into a filesystem spool by one process, executed by separate worker
processes (one of which is hard-killed mid-unit), collected by another,
and the reassembled table is byte-identical to an in-process
``run_experiment`` — then a warm re-serve against the result cache
enqueues zero units.
"""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from repro.experiments.runner import run_experiment

OVERRIDES = ["--set", "n_values=[128,256]", "--set", "probes=400",
             "--set", 'topologies=["chord"]']
OVERRIDE_KWARGS = dict(n_values=[128, 256], probes=400, topologies=["chord"])


def repro_cli(*args, check=True, timeout=120):
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"repro {' '.join(args)} -> {proc.returncode}\n"
            f"stdout: {proc.stdout}\nstderr: {proc.stderr}"
        )
    return proc


@pytest.fixture
def spool(tmp_path):
    return tmp_path / "spool"


def test_serve_work_collect_round_trip_with_worker_kill(tmp_path, spool):
    cache_dir = tmp_path / "cache"
    out = repro_cli(
        "--seed", "3", "dispatch", "serve", "E1", *OVERRIDES,
        "--spool", str(spool), "--lease-timeout", "1",
        "--cache-dir", str(cache_dir),
    )
    assert "units enqueued" in out.stdout

    # worker A: a separate OS process, hard-killed mid-unit — its lease
    # dangles until the timeout
    killed = repro_cli(
        "dispatch", "work", "--spool", str(spool), "--worker", "wA",
        "--chaos", "kill:1", check=False,
    )
    assert killed.returncode == 17
    assert list((spool / "leased").glob("unit-*.json")), "no dangling lease?"

    time.sleep(1.1)  # let the dangling lease expire

    # worker B: another OS process; requeues the expired lease and drains
    repro_cli(
        "dispatch", "work", "--spool", str(spool), "--worker", "wB",
        "--timeout", "60",
    )

    collected = repro_cli(
        "dispatch", "collect", "--spool", str(spool),
        "--cache-dir", str(cache_dir),
    )
    oracle = run_experiment("E1", seed=3, fast=True, **OVERRIDE_KWARGS)
    assert collected.stdout.strip() == oracle.render().strip()

    # the trail holds one dispatch.execute span per executed unit: wB's
    # for each unit it completed, wA's for the unit it died holding
    from repro.telemetry import read_events

    events = read_events(spool / "events.log", strict=True)
    executed = sorted(
        (e["worker"], e["index"]) for e in events
        if e["type"] == "span" and e["phase"] == "dispatch.execute"
    )
    accepted = sorted(
        (e["worker"], e["index"]) for e in events
        if e["type"] == "dispatch.complete" and e["verdict"] == "accepted"
    )
    assert [key for key in executed if key[0] == "wB"] == accepted
    assert [key[0] for key in executed if key[0] != "wB"] == ["wA"]

    # warm re-serve into a fresh spool: table-level cache hit, zero units
    spool2 = tmp_path / "spool2"
    warm = repro_cli(
        "--seed", "3", "dispatch", "serve", "E1", *OVERRIDES,
        "--spool", str(spool2), "--cache-dir", str(cache_dir),
    )
    assert "cache hit" in warm.stdout and "0 of" in warm.stdout
    assert list((spool2 / "pending").glob("*.json")) == []
    warm_collect = repro_cli("dispatch", "collect", "--spool", str(spool2))
    assert warm_collect.stdout.strip() == oracle.render().strip()


def test_collect_refuses_partial_table(spool):
    repro_cli(
        "--seed", "1", "dispatch", "serve", "E1", *OVERRIDES,
        "--spool", str(spool),
    )
    # one worker does one unit, then stops; collect must refuse loudly
    repro_cli("dispatch", "work", "--spool", str(spool), "--max-units", "1")
    proc = repro_cli("dispatch", "collect", "--spool", str(spool), check=False)
    assert proc.returncode == 1
    assert "incomplete" in proc.stderr and "missing" in proc.stderr
    assert proc.stdout.strip() == ""  # never a silent partial table


def test_reserve_existing_spool_only_fills_gaps(spool):
    repro_cli(
        "--seed", "1", "dispatch", "serve", "E1", *OVERRIDES,
        "--spool", str(spool),
    )
    repro_cli("dispatch", "work", "--spool", str(spool), "--max-units", "1")
    out = repro_cli(
        "--seed", "1", "dispatch", "serve", "E1", *OVERRIDES,
        "--spool", str(spool),
    )
    # 2 cells total, 1 completed: the re-serve enqueues nothing new
    # (the completed shard is a spool-level cache hit)
    assert "0 of 2 units enqueued" in out.stdout


def test_serve_rejects_typo_overrides(spool):
    proc = repro_cli(
        "dispatch", "serve", "E1", "--set", "probez=5",
        "--spool", str(spool), check=False,
    )
    assert proc.returncode != 0
    assert "probez" in (proc.stderr + proc.stdout)


def test_quorum_serve_work_collect_outvotes_equivocator(tmp_path, spool):
    # quorum round trip across OS processes: r=3, one worker whose every
    # answer is a plausible hash-consistent lie; the honest majority must
    # outvote it and the collected table must match the serial oracle
    out = repro_cli(
        "--seed", "2", "dispatch", "serve", "E1", *OVERRIDES,
        "--spool", str(spool), "--replicas", "3", "--max-attempts", "8",
        "--lease-timeout", "30",
    )
    assert "x3 replicas" in out.stdout
    manifest = json.loads((spool / "manifest.json").read_text())
    assert manifest["replicas"] == 3
    assert manifest["max_attempts"] == 8
    # 2 cells x 3 replicas staged as slots
    assert len(list((spool / "pending").glob("unit-*.json"))) == 6

    # the liar votes on both units, then two honest workers in sequence
    # provide the two distinct votes each index needs to settle
    repro_cli(
        "dispatch", "work", "--spool", str(spool), "--worker", "wLiar",
        "--chaos", "equivocate:1", "--max-units", "2",
    )
    repro_cli(
        "dispatch", "work", "--spool", str(spool), "--worker", "wB",
        "--max-units", "4",
    )
    repro_cli(
        "dispatch", "work", "--spool", str(spool), "--worker", "wC",
        "--timeout", "60",
    )
    collected = repro_cli("dispatch", "collect", "--spool", str(spool))
    oracle = run_experiment("E1", seed=2, fast=True, **OVERRIDE_KWARGS)
    assert collected.stdout.strip() == oracle.render().strip()

    from repro.telemetry import read_events

    events = read_events(spool / "events.log")
    settled = {
        e["index"] for e in events
        if e["type"] == "dispatch.quorum" and e["outcome"] == "settled"
    }
    assert settled == {0, 1}  # every index settled by majority vote


def test_manifest_records_the_request(spool):
    repro_cli(
        "--seed", "9", "dispatch", "serve", "E1", *OVERRIDES,
        "--spool", str(spool), "--lease-timeout", "7",
    )
    manifest = json.loads((spool / "manifest.json").read_text())
    assert manifest["experiment"] == "E1"
    assert manifest["seed"] == 9
    assert manifest["lease_timeout"] == 7.0
    assert manifest["overrides"]["probes"] == 400
    assert manifest["n_cells"] == 2
