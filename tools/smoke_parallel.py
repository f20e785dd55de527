#!/usr/bin/env python3
"""CI smoke: run the full experiment suite under the process backend.

``run_all(fast=True)`` with ``ExecutionConfig(backend="process")`` dispatches
the fifteen independent experiments across a spawn-safe process pool (a real
file-backed ``__main__`` — the spawn start method cannot re-import a stdin
script), then runs the suite again in-process and fails unless every table
renders byte-identical: the determinism contract of ``--backend process``.
Exercised by the ``smoke-parallel`` job in ``.github/workflows/ci.yml``;
also handy locally::

    PYTHONPATH=src python tools/smoke_parallel.py [--workers W]
"""

from __future__ import annotations

import argparse
import sys
import time


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    from repro.experiments import run_all
    from repro.sim import ExecutionConfig

    t0 = time.perf_counter()
    tables = run_all(
        seed=args.seed,
        fast=True,
        exec_config=ExecutionConfig(backend="process", workers=args.workers),
    )
    elapsed = time.perf_counter() - t0
    assert len(tables) == 15, sorted(tables)
    for name, table in sorted(tables.items(), key=lambda kv: int(kv[0][1:])):
        assert table.rows, f"{name} produced no rows"
        print(table.render())
        print()
    print(f"ran {len(tables)} experiments in {elapsed:.1f}s "
          f"(process backend, workers={args.workers})")

    reference = run_all(seed=args.seed, fast=True)
    diverged = [
        name for name in tables
        if tables[name].render() != reference[name].render()
    ]
    if diverged:
        print(f"FAIL: process-backend tables differ from in-process for "
              f"{', '.join(diverged)}", file=sys.stderr)
        return 1
    print(f"all {len(tables)} tables byte-identical to the in-process run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
