"""Bench E1 — Lemma 1 / P4: responsibility rho(G_v) = O(log^c n / n).

Regenerates the E1 table of EXPERIMENTS.md, whose E1 section names the
paper claim it reproduces.  The benchmark time is the full experiment runtime at
fast (laptop) scale.
"""

import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="E1")
def test_bench_e1(benchmark, table_sink):
    table = benchmark.pedantic(
        lambda: run_experiment("E1", fast=True), rounds=1, iterations=1
    )
    table_sink(table)
