"""Bench E9 — Lemma 12 / App. VIII: string propagation under delayed release.

Regenerates the E9 table of EXPERIMENTS.md, whose E9 section names the
paper claim it reproduces.  The benchmark time is the full experiment runtime at
fast (laptop) scale.
"""

import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="E9")
def test_bench_e9(benchmark, table_sink):
    table = benchmark.pedantic(
        lambda: run_experiment("E9", fast=True), rounds=1, iterations=1
    )
    table_sink(table)
