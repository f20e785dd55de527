#!/usr/bin/env python3
"""CI smoke: the sharded dispatcher end-to-end, faults included.

For E1 and E2 (fast scale), runs the full dispatcher workflow with the
roles in **separate OS processes** over a filesystem spool:

1. ``repro dispatch serve`` serializes the sweep into work units;
2. two ``repro dispatch work`` worker processes run concurrently — one
   is hard-killed mid-unit via ``--chaos kill:1`` (the injected fault),
   leaving a dangling lease the survivor must requeue after the lease
   timeout;
3. ``repro dispatch collect`` verifies and reassembles the table, which
   must be **byte-identical** to an in-process ``run_experiment`` of the
   same request;
4. a warm re-serve against the result cache must report a cache hit and
   enqueue **zero** units, and its collect must render identically.

A final quorum drill re-serves the first experiment with ``--replicas
3`` and runs three concurrent workers, one of them a persistent
equivocator (``--chaos equivocate:1`` — hash-consistent wrong answers
that verify clean); the honest majority must outvote it on every unit
and the collected table must again match the oracle byte-for-byte.

In both drills every accepted completion in the spool's trail must have
its own ``dispatch.execute`` span from the same worker (a killed worker
leaves one more span, for the unit it never completed).

Exercised by the ``smoke-dispatch`` job in ``.github/workflows/ci.yml``;
also handy locally::

    PYTHONPATH=src python tools/smoke_dispatch.py [--experiments E1 E2]
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys
import tempfile
import time
from collections import Counter

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
LEASE_TIMEOUT = 2.0


def repro(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, timeout=600,
    )
    if check and proc.returncode != 0:
        raise SystemExit(
            f"repro {' '.join(args)} failed ({proc.returncode}):\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    return proc


def check_execute_spans(experiment: str, events: list[dict]) -> None:
    """One ``dispatch.execute`` span per accepted completion, by worker."""
    executed = Counter(
        (e["index"], e["worker"]) for e in events
        if e["type"] == "span" and e["phase"] == "dispatch.execute"
    )
    accepted = Counter(
        (e["index"], e["worker"]) for e in events
        if e["type"] == "dispatch.complete" and e["verdict"] == "accepted"
    )
    unspanned = accepted - executed
    assert accepted and not unspanned, (
        f"{experiment}: accepted completions without a dispatch.execute "
        f"span: {sorted(unspanned)}"
    )
    print(f"  {experiment}: {sum(executed.values())} dispatch.execute "
          f"span(s) cover all {sum(accepted.values())} accepted completions")


def smoke_one(
    experiment: str,
    seed: int,
    workdir: pathlib.Path,
    telemetry_out: pathlib.Path | None = None,
) -> None:
    spool = workdir / f"spool-{experiment.lower()}"
    cache_dir = workdir / "cache"

    served = repro(
        "--seed", str(seed), "dispatch", "serve", experiment,
        "--spool", str(spool), "--lease-timeout", str(LEASE_TIMEOUT),
        "--cache-dir", str(cache_dir),
    )
    print(served.stdout.strip())

    # two pull workers in separate OS processes; worker A is hard-killed
    # mid-unit (os._exit, no cleanup) — the injected Byzantine fault
    env = dict(os.environ, PYTHONPATH=SRC)
    killed = subprocess.Popen(
        [sys.executable, "-m", "repro", "dispatch", "work",
         "--spool", str(spool), "--worker", "wA-doomed", "--chaos", "kill:1"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    survivor = subprocess.Popen(
        [sys.executable, "-m", "repro", "dispatch", "work",
         "--spool", str(spool), "--worker", "wB-survivor",
         "--timeout", "120"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    killed.wait(timeout=300)
    assert killed.returncode == 17, (
        f"chaos worker should die with 17, got {killed.returncode}: "
        f"{killed.communicate()}"
    )
    out, err = survivor.communicate(timeout=300)
    assert survivor.returncode == 0, f"survivor failed: {out}\n{err}"
    print(f"  worker A killed mid-unit (rc 17); survivor: {out.strip()}")

    collected = repro(
        "dispatch", "collect", "--spool", str(spool),
        "--cache-dir", str(cache_dir),
    )

    from repro.experiments.runner import run_experiment

    oracle = run_experiment(experiment, seed=seed, fast=True)
    assert collected.stdout.strip() == oracle.render().strip(), (
        f"{experiment}: reassembled table differs from the serial oracle\n"
        f"--- dispatched ---\n{collected.stdout}\n--- oracle ---\n{oracle.render()}"
    )
    print(f"  {experiment}: reassembled table byte-identical to run_experiment")

    # warm re-run: table-level cache hit, zero units enqueued/executed
    spool2 = workdir / f"spool-{experiment.lower()}-warm"
    warm = repro(
        "--seed", str(seed), "dispatch", "serve", experiment,
        "--spool", str(spool2), "--cache-dir", str(cache_dir),
    )
    assert "cache hit" in warm.stdout and "0 of" in warm.stdout, warm.stdout
    assert not list((spool2 / "pending").glob("*.json")), "warm serve enqueued units"
    warm_collect = repro("dispatch", "collect", "--spool", str(spool2))
    assert warm_collect.stdout.strip() == oracle.render().strip()
    print(f"  {experiment}: warm re-serve is a cache hit (0 units)")

    # the chaos run must leave a complete, strictly-parseable event trail:
    # every unit was served, leased and verified-complete despite the kill
    from repro.telemetry import read_events

    events = read_events(spool / "events.log", strict=True)
    served_units = next(
        e for e in events if e["type"] == "dispatch.serve"
    )["units"]
    completed = {
        e["index"] for e in events
        if e["type"] == "dispatch.complete" and e["verdict"] == "accepted"
    }
    assert len(completed) == served_units, (
        f"{experiment}: event trail covers {len(completed)} of "
        f"{served_units} units"
    )
    check_execute_spans(experiment, events)
    print(f"  {experiment}: telemetry trail complete "
          f"({len(events)} events, {served_units} units verified)")
    if telemetry_out is not None:
        # spools are ephemeral (tempdir); aggregate their jsonl trails into
        # the artifact CI uploads.  Plain concatenation: both files are
        # whole-line jsonl by the writer's O_APPEND discipline.
        with telemetry_out.open("ab") as out:
            for src in (spool / "events.log", spool2 / "events.log"):
                if src.exists():
                    out.write(src.read_bytes())


def smoke_quorum(
    experiment: str,
    seed: int,
    workdir: pathlib.Path,
    telemetry_out: pathlib.Path | None = None,
) -> None:
    """Quorum drill: r=3 with one persistently-equivocating worker.

    The liar's answers are hash-consistent (they verify clean); only the
    majority vote across distinct workers can reject them.  Three worker
    processes run concurrently and the collected table must still be
    byte-identical to the serial oracle.
    """
    spool = workdir / f"spool-{experiment.lower()}-quorum"
    served = repro(
        "--seed", str(seed), "dispatch", "serve", experiment,
        "--spool", str(spool), "--lease-timeout", str(LEASE_TIMEOUT),
        "--replicas", "3", "--max-attempts", "8",
    )
    print(served.stdout.strip())

    env = dict(os.environ, PYTHONPATH=SRC)
    def worker(name: str, *extra: str) -> subprocess.Popen:
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "dispatch", "work",
             "--spool", str(spool), "--worker", name, "--timeout", "120",
             *extra],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )

    liar = worker("wLiar", "--chaos", "equivocate:1")
    honest = [worker("wHonest1"), worker("wHonest2")]
    for proc, name in [(liar, "wLiar")] + list(zip(honest, ("wHonest1", "wHonest2"))):
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, f"{name} failed: {out}\n{err}"
    print(f"  {experiment}: 3-worker quorum pool drained (1 equivocator)")

    collected = repro("dispatch", "collect", "--spool", str(spool))

    from repro.experiments.runner import run_experiment

    oracle = run_experiment(experiment, seed=seed, fast=True)
    assert collected.stdout.strip() == oracle.render().strip(), (
        f"{experiment}: quorum table differs from the serial oracle\n"
        f"--- dispatched ---\n{collected.stdout}\n--- oracle ---\n{oracle.render()}"
    )

    from repro.telemetry import read_events

    events = read_events(spool / "events.log", strict=True)
    served_units = next(
        e for e in events if e["type"] == "dispatch.serve"
    )["units"]
    settled = {
        e["index"] for e in events
        if e["type"] == "dispatch.quorum" and e["outcome"] == "settled"
    }
    assert len(settled) == served_units, (
        f"{experiment}: quorum settled {len(settled)} of {served_units} units"
    )
    check_execute_spans(experiment, events)
    print(f"  {experiment}: quorum outvoted the equivocator on all "
          f"{served_units} units, table byte-identical to run_experiment")
    if telemetry_out is not None:
        with telemetry_out.open("ab") as out:
            out.write((spool / "events.log").read_bytes())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--experiments", nargs="*", default=["E1", "E2"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--telemetry-out", default=None,
        help="aggregate the spools' events.log jsonl trails into this file "
             "(the spools themselves are ephemeral tempdirs)",
    )
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    telemetry_out = None
    if args.telemetry_out is not None:
        telemetry_out = pathlib.Path(args.telemetry_out)
        telemetry_out.parent.mkdir(parents=True, exist_ok=True)
        telemetry_out.write_bytes(b"")  # fresh aggregate per run
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-dispatch-smoke-") as td:
        for experiment in args.experiments:
            smoke_one(
                experiment.upper(), args.seed, pathlib.Path(td),
                telemetry_out=telemetry_out,
            )
        smoke_quorum(
            args.experiments[0].upper(), args.seed, pathlib.Path(td),
            telemetry_out=telemetry_out,
        )
    print(
        f"dispatch smoke ok: {', '.join(args.experiments)} sharded across "
        f"OS-process workers with one injected kill plus an r=3 quorum "
        f"drill outvoting an equivocator, tables byte-identical, warm runs "
        f"cached ({time.perf_counter() - t0:.1f}s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
