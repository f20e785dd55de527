"""Bench E7 — Lemma 10: per-ID state stays O(poly(log log n)).

Regenerates the E7 table of EXPERIMENTS.md, whose E7 section names the
paper claim it reproduces.  The benchmark time is the full experiment runtime at
fast (laptop) scale.
"""

import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="E7")
def test_bench_e7(benchmark, table_sink):
    table = benchmark.pedantic(
        lambda: run_experiment("E7", fast=True), rounds=1, iterations=1
    )
    table_sink(table)
