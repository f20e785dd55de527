"""Bench E6 — Corollary 1: tiny vs Theta(log n) group costs.

Regenerates the E6 table of EXPERIMENTS.md, whose E6 section names the
paper claim it reproduces.  The benchmark time is the full experiment runtime at
fast (laptop) scale.
"""

import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="E6")
def test_bench_e6(benchmark, table_sink):
    table = benchmark.pedantic(
        lambda: run_experiment("E6", fast=True), rounds=1, iterations=1
    )
    table_sink(table)
