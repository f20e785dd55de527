"""Bench E3 — SS I-C / Lemma 7: bad-group probability vs group size (Chernoff).

Regenerates the E3 table of EXPERIMENTS.md, whose E3 section names the
paper claim it reproduces.  The benchmark time is the full experiment runtime at
fast (laptop) scale.
"""

import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="E3")
def test_bench_e3(benchmark, table_sink):
    table = benchmark.pedantic(
        lambda: run_experiment("E3", fast=True), rounds=1, iterations=1
    )
    table_sink(table)
