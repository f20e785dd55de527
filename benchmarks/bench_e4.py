"""Bench E4 — Theorem 3: eps-robustness maintained over epochs under churn.

Regenerates the E4 table of EXPERIMENTS.md, whose E4 section names the
paper claim it reproduces.  The benchmark time is the full experiment runtime at
fast (laptop) scale.
"""

import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="E4")
def test_bench_e4(benchmark, table_sink):
    table = benchmark.pedantic(
        lambda: run_experiment("E4", fast=True), rounds=1, iterations=1
    )
    table_sink(table)
