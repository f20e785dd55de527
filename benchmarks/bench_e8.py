"""Bench E8 — Lemma 11: PoW count bound + u.a.r. placement (one-hash ablation).

Regenerates the E8 table of EXPERIMENTS.md, whose E8 section names the
paper claim it reproduces.  The benchmark time is the full experiment runtime at
fast (laptop) scale.
"""

import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="E8")
def test_bench_e8(benchmark, table_sink):
    table = benchmark.pedantic(
        lambda: run_experiment("E8", fast=True), rounds=1, iterations=1
    )
    table_sink(table)
