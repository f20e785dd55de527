"""Bench sweep — serial vs cell-parallel vs cache-hit wall clock (+ parity).

E1 and E2 are the genuinely cell-parallel sweeps migrated onto the
declarative ``SweepSpec`` substrate: E1's (topology x n) grid and E2's
``p_f`` axis both dispatch cells across the spawn pool.  This benchmark
records three timings per experiment to ``benchmarks/output/timings.txt``
(via the shared ``timing_sink`` fixture, next to the PR-1 parallel bench):

* ``serial`` — the reference in-process cell loop;
* ``process`` — the cell-parallel pool (>= 2x on a >= 4-core host; on
  smaller hosts the timing is still recorded but the speedup assertion is
  skipped — pools cannot beat serial on one core).  Both sides run the
  *serial* cell kernels (``ExecutionConfig.kernel``) so the comparison
  isolates scheduling: the vectorized kernels make fast-scale cells too
  cheap to amortize worker spawn (that speedup is ``bench_vectorized.py``'s
  subject, measured at paper scale);
* ``cache-hit`` — a warm load from the on-disk result cache, which must
  render identically to the cold table while executing zero cells.

Every timing is also recorded as a machine-readable row in
``benchmarks/output/BENCH_vectorized.json`` (the ``bench_json`` fixture),
so the cell-scheduling numbers live in the same perf-trajectory file as
the kernel numbers from ``bench_vectorized.py``.  The scheduling rows
carry their own backend labels (``sweep-serial`` / ``sweep-process``):
``tools/smoke_vectorized.py`` writes ``cells-serial`` / ``cells-process``
rows for the same ``(experiment, n)`` points with the vectorized kernels,
and rows sharing a key would replace each other.

Run with::

    pytest benchmarks/bench_sweep.py -s
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import run_experiment
from repro.sim import ExecutionConfig, cells_executed, reset_cells_executed

CORES = os.cpu_count() or 1
# at least 2 so the pool path is genuinely exercised (a 1-worker pool
# short-circuits to the serial cell loop and would mislabel the timing)
WORKERS = max(2, min(4, CORES))

# scales where each cell is meaty enough to amortize worker spawn; n/cells
# annotate the BENCH_vectorized.json rows (n = the largest scale in the grid)
CASES = {
    "E1": dict(
        kwargs=dict(seed=0, fast=True, n_values=(512, 1024), probes=20_000,
                    topologies=("chord", "debruijn")),
        n=1024, cells=4,
    ),
    "E2": dict(
        kwargs=dict(seed=0, fast=True, n=1024, probes=20_000),
        n=1024, cells=7,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_bench_sweep_serial_process_cache(name, timing_sink, bench_json, tmp_path):
    case = CASES[name]
    kwargs, cells = case["kwargs"], case["cells"]
    trials = kwargs["probes"] * cells
    # hold the cell *kernel* constant (the serial reference loops) on both
    # sides so this measures cell scheduling alone — with the vectorized
    # kernels (bench_vectorized.py's subject) fast-scale cells are too
    # cheap for a spawn pool to amortize, and mixing kernels would compare
    # two different computations
    serial_cfg = ExecutionConfig(backend="serial")
    serial_table, t_serial = timing_sink(
        f"{name}-sweep", "serial", 1,
        lambda: run_experiment(name, exec_config=serial_cfg, **kwargs),
    )
    bench_json(name, case["n"], "sweep-serial", t_serial, cells, trials)
    cfg = ExecutionConfig(backend="process", workers=WORKERS, kernel="serial")
    par_table, t_par = timing_sink(
        f"{name}-sweep", "process", WORKERS,
        lambda: run_experiment(name, exec_config=cfg, **kwargs),
    )
    bench_json(name, case["n"], "sweep-process", t_par, cells, trials)
    assert serial_table.render() == par_table.render()  # parity unconditional
    if CORES >= 4:
        assert t_serial / t_par >= 1.5, (
            f"expected cell-parallel speedup on {CORES} cores; "
            f"serial {t_serial:.2f}s vs process {t_par:.2f}s"
        )

    # cold store, then time the warm hit (kernel-independent: the cache is
    # keyed without it and tables are identical)
    run_experiment(name, cache=True, cache_dir=str(tmp_path), **kwargs)
    reset_cells_executed()
    warm_table, t_warm = timing_sink(
        f"{name}-sweep", "cache-hit", 1,
        lambda: run_experiment(name, cache=True, cache_dir=str(tmp_path), **kwargs),
    )
    bench_json(name, case["n"], "cache-hit", t_warm, cells, trials)
    assert cells_executed() == 0  # the hit executed no experiment body
    assert warm_table.render() == serial_table.render()
    assert t_warm < t_serial  # loading JSON beats recomputing
