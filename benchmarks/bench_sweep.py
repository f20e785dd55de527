"""Bench sweep — in-process vs cell-parallel vs cache-hit wall clock (+ parity).

E1 and E2 are genuinely cell-parallel sweeps: E1's (topology x n) grid
and E2's ``p_f`` axis both dispatch cells across the spawn pool.  This
benchmark records three timings per experiment to
``benchmarks/output/timings.txt`` (via the shared ``timing_sink``
fixture, next to the parallel bench):

* ``serial`` — the in-process cell loop;
* ``process`` — the cell-parallel pool (>= 1.5x on a >= 4-core host; on
  smaller hosts the timing is still recorded but the speedup assertion is
  skipped — pools cannot beat serial on one core).  Both sides run at
  paper scale (``fast=False``, the kwargs of ``tools/smoke_vectorized.py``'s
  E1/E2 points), where each cell outweighs the pool's per-task cost;
* ``cache-hit`` — a warm load from the on-disk result cache, which must
  render identically to the cold table while executing zero cells.

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


@pytest.mark.parametrize("name", ["E1", "E2"])
def test_bench_sweep_serial_process_cache(name, timing_sink, tmp_path):
    kwargs = dict(fast=False, seed=0)
    serial_table, t_serial = timing_sink(
        f"{name}-sweep", "serial", 1,
        lambda: run_experiment(name, **kwargs),
    )
    cfg = ExecutionConfig(backend="process", workers=WORKERS)
    par_table, t_par = timing_sink(
        f"{name}-sweep", "process", WORKERS,
        lambda: run_experiment(name, exec_config=cfg, **kwargs),
    )
    assert serial_table.render() == par_table.render()  # parity unconditional
    if CORES >= 4:
        assert t_serial / t_par >= 1.5, (
            f"expected cell-parallel speedup on {CORES} cores; "
            f"serial {t_serial:.2f}s vs process {t_par:.2f}s"
        )

    # cold store, then time the warm hit (the cache is keyed without the
    # backend: tables are identical across backends)
    run_experiment(name, cache=True, cache_dir=str(tmp_path), **kwargs)
    reset_cells_executed()
    warm_table, t_warm = timing_sink(
        f"{name}-sweep", "cache-hit", 1,
        lambda: run_experiment(name, cache=True, cache_dir=str(tmp_path), **kwargs),
    )
    assert cells_executed() == 0  # the hit executed no experiment body
    assert warm_table.render() == serial_table.render()
    assert t_warm < t_serial  # loading JSON beats recomputing
