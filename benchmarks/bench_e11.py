"""Bench E11 — SS I-D: group-size scaling knee (log log n vs log n).

Regenerates the E11 table of EXPERIMENTS.md, whose E11 section names the
paper claim it reproduces.  The benchmark time is the full experiment runtime at
fast (laptop) scale.
"""

import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="E11")
def test_bench_e11(benchmark, table_sink):
    table = benchmark.pedantic(
        lambda: run_experiment("E11", fast=True), rounds=1, iterations=1
    )
    table_sink(table)
