"""Bench E12 — SS I-B / [47]: cuckoo-rule group sizes under join-leave attack.

Regenerates the E12 table of EXPERIMENTS.md, whose E12 section names the
paper claim it reproduces.  The benchmark time is the full experiment runtime at
fast (laptop) scale.
"""

import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="E12")
def test_bench_e12(benchmark, table_sink):
    table = benchmark.pedantic(
        lambda: run_experiment("E12", fast=True), rounds=1, iterations=1
    )
    table_sink(table)
