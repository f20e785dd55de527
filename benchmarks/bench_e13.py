"""Bench E13 — SS I footnote 2: quarantine damps spam to zero marginal cost.

Regenerates the E13 table of EXPERIMENTS.md, whose E13 section names the
paper claim it reproduces.
"""

import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="E13")
def test_bench_e13(benchmark, table_sink):
    table = benchmark.pedantic(
        lambda: run_experiment("E13", fast=True), rounds=1, iterations=1
    )
    table_sink(table)
