"""Bench E15 — SS III remark: guarantees under Theta(n) population drift.

Regenerates the E15 table of EXPERIMENTS.md, whose E15 section names the
paper claim it reproduces.
"""

import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="E15")
def test_bench_e15(benchmark, table_sink):
    table = benchmark.pedantic(
        lambda: run_experiment("E15", fast=True), rounds=1, iterations=1
    )
    table_sink(table)
