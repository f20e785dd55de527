"""Bench E10 — SS IV-B: pre-computation attack vs fresh-string defense.

Regenerates the E10 table of EXPERIMENTS.md, whose E10 section names the
paper claim it reproduces.  The benchmark time is the full experiment runtime at
fast (laptop) scale.
"""

import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="E10")
def test_bench_e10(benchmark, table_sink):
    table = benchmark.pedantic(
        lambda: run_experiment("E10", fast=True), rounds=1, iterations=1
    )
    table_sink(table)
