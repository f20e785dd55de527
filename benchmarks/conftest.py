"""Benchmark harness configuration.

``bench_tables.py`` regenerates every experiment's table (EXPERIMENTS.md
maps experiments to paper claims).  The bench files do not match pytest's
default ``test_*.py`` collection pattern, so name them explicitly::

    pytest benchmarks/bench_*.py -s

``-s`` shows the reproduced tables; timings come from pytest-benchmark.
Rendered tables are also written to ``benchmarks/output/`` so EXPERIMENTS.md
can be regenerated without scraping stdout.

``timing_sink`` appends a human-oriented ``name backend workers seconds``
line per measurement to ``output/timings.txt``.
"""

from __future__ import annotations

import pathlib
import time

import pytest

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


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
def timing_sink():
    """Record backend timings: ``record(name, backend, workers, fn)``.

    Times ``fn()`` once, appends the matching ``name backend workers
    seconds`` line to ``output/timings.txt``, and returns ``(result,
    seconds)`` so callers can also assert content parity between backends.
    """
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / "timings.txt"
    path.write_text("# name backend workers seconds\n")

    def record(name: str, backend: str, workers: int, fn):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        with path.open("a") as fh:
            fh.write(f"{name} {backend} {workers} {elapsed:.3f}\n")
        print(f"[timing] {name} backend={backend} workers={workers}: "
              f"{elapsed:.2f}s")
        return result, elapsed

    return record

