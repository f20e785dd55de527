"""Bench every experiment table (E1 .. E15) at fast (laptop) scale.

Each case regenerates one table of EXPERIMENTS.md, whose section for it
names the paper claim it reproduces, and writes it to
``benchmarks/output/<id>.txt``.  The benchmark time is the experiment's
full runtime; each experiment is its own pytest-benchmark group.
"""

import pytest

from repro.experiments import SPEC_BUILDERS, run_experiment


@pytest.mark.parametrize("name", sorted(SPEC_BUILDERS, key=lambda k: int(k[1:])))
def test_bench_table(name, benchmark, table_sink):
    benchmark.group = name
    table = benchmark.pedantic(
        lambda: run_experiment(name, fast=True), rounds=1, iterations=1
    )
    table_sink(table)
