"""Bench E14 — SS I-A: redundant storage durability — epoch repair vs pinned replicas.

Regenerates the E14 table of EXPERIMENTS.md, whose E14 section names the
paper claim it reproduces.
"""

import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="E14")
def test_bench_e14(benchmark, table_sink):
    table = benchmark.pedantic(
        lambda: run_experiment("E14", fast=True), rounds=1, iterations=1
    )
    table_sink(table)
