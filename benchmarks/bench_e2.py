"""Bench E2 — Lemmas 2-4: static search failure X = O(p_f log^c n).

Regenerates the E2 table of EXPERIMENTS.md, whose E2 section names the
paper claim it reproduces.  The benchmark time is the full experiment runtime at
fast (laptop) scale.
"""

import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="E2")
def test_bench_e2(benchmark, table_sink):
    table = benchmark.pedantic(
        lambda: run_experiment("E2", fast=True), rounds=1, iterations=1
    )
    table_sink(table)
