"""Benchmark harness configuration.

Each ``bench_e*.py`` regenerates one experiment's table (EXPERIMENTS.md maps
experiments to paper claims).  The bench files do not match pytest's
default ``test_*.py`` collection pattern, so name them explicitly::

    pytest benchmarks/bench_*.py -s

``-s`` shows the reproduced tables; timings come from pytest-benchmark.
Rendered tables are also written to ``benchmarks/output/`` so EXPERIMENTS.md
can be regenerated without scraping stdout.

Both timing fixtures are thin adapters over :mod:`repro.telemetry` — every
measurement is a typed event (``bench.timing`` / ``bench.row``) appended to
``benchmarks/output/telemetry.jsonl``, the same record stream the dispatch
spool and the sweep substrate emit.  ``timing_sink`` additionally renders
each ``bench.timing`` event as a human-oriented ``name backend workers
seconds`` line in ``output/timings.txt``; ``bench_json`` additionally
merges its ``bench.row`` payloads into ``output/BENCH_vectorized.json``
(via ``repro.analysis.benchio``), the repo's perf-trajectory file —
re-runs replace rows by ``(experiment, n, backend)`` instead of appending.
``repro telemetry report --events output/telemetry.jsonl`` reproduces the
ledger rows from the event stream alone.
"""

from __future__ import annotations

import pathlib
import time

import pytest

from repro.analysis.benchio import BENCH_FILENAME, record_bench_rows
from repro.telemetry import TelemetryWriter, bench_row

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def telemetry_writer():
    """The bench session's shared event stream (``output/telemetry.jsonl``)."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    with TelemetryWriter(OUTPUT_DIR / "telemetry.jsonl") as writer:
        yield writer


@pytest.fixture(scope="session")
def table_sink():
    OUTPUT_DIR.mkdir(exist_ok=True)

    def write(table) -> None:
        rendered = table.render()
        print()
        print(rendered)
        (OUTPUT_DIR / f"{table.experiment.lower()}.txt").write_text(rendered + "\n")

    return write


@pytest.fixture(scope="session")
def timing_sink(telemetry_writer):
    """Record backend timings: ``record(name, backend, workers, fn)``.

    Times ``fn()`` once, emits a ``bench.timing`` telemetry event, renders
    the matching ``name backend workers seconds`` line in
    ``output/timings.txt``, and returns ``(result, seconds)`` so callers
    can also assert content parity between backends.
    """
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / "timings.txt"
    path.write_text("# name backend workers seconds\n")

    def record(name: str, backend: str, workers: int, fn):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        telemetry_writer.emit(
            "bench.timing",
            name=name, backend=backend, workers=int(workers),
            wall_s=round(elapsed, 6),
        )
        with path.open("a") as fh:
            fh.write(f"{name} {backend} {workers} {elapsed:.3f}\n")
        print(f"[timing] {name} backend={backend} workers={workers}: "
              f"{elapsed:.2f}s")
        return result, elapsed

    return record


@pytest.fixture(scope="session")
def bench_json(telemetry_writer):
    """Machine-readable bench rows: ``record(experiment, n, backend,
    wall_s, cells, trials)``.

    Each row is emitted as a ``bench.row`` telemetry event as it is
    recorded; at teardown the accumulated rows are merged into
    ``output/BENCH_vectorized.json`` (replacing rows with the same
    ``(experiment, n, backend)`` key), so benchmark files compose into
    one trajectory file no matter which subset was run.
    """
    OUTPUT_DIR.mkdir(exist_ok=True)
    rows: list[dict] = []

    def record(experiment, n, backend, wall_s, cells, trials):
        row = bench_row(experiment, n, backend, wall_s, cells, trials)
        telemetry_writer.emit("bench.row", **row)
        rows.append(row)
        print(f"[bench-json] {row}")
        return row

    yield record
    if rows:
        record_bench_rows(OUTPUT_DIR / BENCH_FILENAME, rows)
