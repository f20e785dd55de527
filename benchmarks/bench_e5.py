"""Bench E5 — SS III motivation: two-graph vs single-graph error accumulation.

Regenerates the E5 table of EXPERIMENTS.md, whose E5 section names the
paper claim it reproduces.  The benchmark time is the full experiment runtime at
fast (laptop) scale.
"""

import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="E5")
def test_bench_e5(benchmark, table_sink):
    table = benchmark.pedantic(
        lambda: run_experiment("E5", fast=True), rounds=1, iterations=1
    )
    table_sink(table)
