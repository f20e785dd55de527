"""Bench sweep — in-process vs cell-parallel vs cache-hit wall clock (+ parity).

E1 and E2 are genuinely cell-parallel sweeps: E1's (topology x n) grid
and E2's ``p_f`` axis both dispatch cells across the spawn pool.  This
benchmark records three timings per experiment to
``benchmarks/output/timings.txt`` (via the shared ``timing_sink``
fixture, next to the parallel bench):

* ``serial`` — the in-process cell loop;
* ``process`` — the cell-parallel pool (>= 1.5x on a >= 4-core host; on
  smaller hosts the timing is still recorded but the speedup assertion is
  skipped — pools cannot beat serial on one core).  Both sides run the
  paper-scale kwargs of ``repro.analysis.benchio.PROCESS_BENCH_CASES``,
  where each cell outweighs the pool's per-task cost;
* ``cache-hit`` — a warm load from the on-disk result cache, which must
  render identically to the cold table while executing zero cells.

Every timing is also recorded as a machine-readable row in
``benchmarks/output/BENCH_vectorized.json`` (the ``bench_json`` fixture).
The scheduling rows carry their own backend labels (``sweep-serial`` /
``sweep-process``): ``tools/smoke_vectorized.py`` writes ``cells-serial``
/ ``cells-process`` rows for the same ``(experiment, n)`` points, and
rows sharing a key would replace each other.

Run with::

    pytest benchmarks/bench_sweep.py -s
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.benchio import PROCESS_BENCH_CASES
from repro.experiments import run_experiment
from repro.sim import ExecutionConfig, cells_executed, reset_cells_executed

CORES = os.cpu_count() or 1
# at least 2 so the pool path is genuinely exercised (a 1-worker pool
# short-circuits to the serial cell loop and would mislabel the timing)
WORKERS = max(2, min(4, CORES))

CASES = {name: PROCESS_BENCH_CASES[name] for name in ("E1", "E2")}


@pytest.mark.parametrize("name", sorted(CASES))
def test_bench_sweep_serial_process_cache(name, timing_sink, bench_json, tmp_path):
    case = CASES[name]
    kwargs = dict(case["kwargs"], seed=0)
    n, cells, trials = case["n"], case["cells"], case["trials"]
    serial_table, t_serial = timing_sink(
        f"{name}-sweep", "serial", 1,
        lambda: run_experiment(name, **kwargs),
    )
    bench_json(name, n, "sweep-serial", t_serial, cells, trials)
    cfg = ExecutionConfig(backend="process", workers=WORKERS)
    par_table, t_par = timing_sink(
        f"{name}-sweep", "process", WORKERS,
        lambda: run_experiment(name, exec_config=cfg, **kwargs),
    )
    bench_json(name, n, "sweep-process", t_par, cells, trials)
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
    bench_json(name, n, "cache-hit", t_warm, cells, trials)
    assert cells_executed() == 0  # the hit executed no experiment body
    assert warm_table.render() == serial_table.render()
    assert t_warm < t_serial  # loading JSON beats recomputing
