"""Integration: every registered experiment runs and yields a sane table.

Guards the experiment registry as a whole: each run() must return a
non-empty TableResult whose rows match its header width — so a broken
experiment can never silently ship an empty table into EXPERIMENTS.md.
Key shape assertions per experiment live in test_end_to_end.py; this file
is the coverage net.
"""

import pytest

from repro.analysis.tables import TableResult
from repro.experiments import EXPERIMENTS, SPEC_BUILDERS, run_all, run_experiment

# tiny-config overrides so the full sweep stays fast in CI
FAST_OVERRIDES = {
    "E1": dict(n_values=(128,), probes=2000, topologies=("chord",)),
    "E2": dict(n=256, probes=3000, pf_values=(0.01, 0.05)),
    "E3": dict(n=256, betas=(0.05,), d2_values=(6.0, 10.0)),
    "E4": dict(n=128, epochs=2),
    "E5": dict(n=128, pf0_values=(0.01, 0.05), analytic_epochs=4),
    "E6": dict(n_values=(256,), probes=1000),
    "E7": dict(n=128, epochs=2),
    "E8": dict(trials=6),
    "E9": dict(n=128),
    "E10": dict(horizons=(2, 20)),
    "E11": dict(n_measured=256, sizes=(3, 8, 16), probes=2000,
                n_theory=(2**8, 2**12)),
    "E12": dict(n=1024, sizes=(8, 32), events=2000),
    "E13": dict(epochs=3),
    "E14": dict(n=256, objects=60, churn_rounds=2),
    "E15": dict(n=128, epochs=3),
}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS, key=lambda k: int(k[1:])))
def test_experiment_produces_table(name):
    table = run_experiment(name, seed=1, fast=True, **FAST_OVERRIDES.get(name, {}))
    assert isinstance(table, TableResult)
    assert table.experiment == name
    assert table.rows, f"{name} produced no rows"
    width = len(table.headers)
    assert all(len(row) == width for row in table.rows)
    rendered = table.render()
    assert f"[{name}]" in rendered


# the experiments promoted to the vectorized kernels: the static-case
# pipeline (PR 3) plus the dynamic-case trajectories (E4 epochs, E8 PoW
# windows, E12 churn — this PR)
KERNEL_EXPERIMENTS = ("E1", "E2", "E3", "E4", "E5", "E6", "E8", "E12")


@pytest.mark.parametrize(
    "name",
    [
        # the E4 serial reference costs ~45s at this point alone — it is
        # the canonical >10s case the `slow` marker exists for
        pytest.param(n, marks=pytest.mark.slow) if n == "E4" else n
        for n in KERNEL_EXPERIMENTS
    ],
)
def test_serial_and_vectorized_backends_render_identical(name):
    """Acceptance bar of the kernel layer: the explicit serial backend (the
    reference loop implementations) and the default vectorized kernels must
    render bit-identical tables."""
    from repro.sim import ExecutionConfig

    kwargs = dict(seed=3, fast=True, **FAST_OVERRIDES.get(name, {}))
    serial = run_experiment(
        name, exec_config=ExecutionConfig(backend="serial"), **kwargs
    )
    vectorized = run_experiment(
        name, exec_config=ExecutionConfig(backend="vectorized"), **kwargs
    )
    default = run_experiment(name, **kwargs)  # no config -> vectorized kernels
    assert serial.render() == vectorized.render() == default.render()


def test_registry_is_dense():
    """E1..E15 with no gaps — EXPERIMENTS.md maps one to each claim."""
    nums = sorted(int(k[1:]) for k in EXPERIMENTS)
    assert nums == list(range(1, len(nums) + 1))


def test_run_experiment_unknown():
    with pytest.raises(ValueError):
        run_experiment("E99")


def test_run_experiment_case_insensitive():
    t = run_experiment("e10", fast=True, horizons=(2,))
    assert t.experiment == "E10"


def test_run_experiment_rejects_unknown_override():
    """Typo'd overrides raise a TypeError naming the experiment up front,
    not an opaque traceback from inside the module."""
    with pytest.raises(TypeError, match=r"E12.*bogus_knob"):
        run_experiment("E12", bogus_knob=1)


def test_run_experiment_error_lists_valid_overrides():
    with pytest.raises(TypeError, match="epoch_length"):
        run_experiment("E8", trails=5)  # typo of "trials"


def test_run_all_rejects_seed_fast_as_overrides():
    """seed/fast are run_all parameters; smuggling them through the
    overrides mapping must fail up front with the experiment named, not
    as a duplicate-keyword crash inside (possibly a spawn worker's)
    dispatch."""
    with pytest.raises(TypeError, match="E1.*seed"):
        run_all(names=("E1",), overrides={"E1": {"seed": 5}})
    with pytest.raises(TypeError, match="E1.*fast"):
        run_all(names=("E1",), overrides={"E1": {"fast": False}})


def test_run_all_rejects_overrides_for_experiments_outside_run():
    """Override entries that no requested experiment will consume are an
    error, not silently dead configuration."""
    with pytest.raises(ValueError, match="E2"):
        run_all(names=("E1",), overrides={"E2": {"probes": 9}})


def test_run_all_validates_overrides_before_dispatch():
    """Unknown overrides for ANY requested experiment fail in the parent
    before any experiment body runs."""
    from repro.sim import cells_executed, reset_cells_executed

    reset_cells_executed()
    with pytest.raises(TypeError, match="E13.*bogus"):
        run_all(names=("E1", "E13"), overrides={"E13": {"bogus": 1}})
    assert cells_executed() == 0


def test_run_all_override_keys_case_insensitive():
    """Lowercase override keys must reach (and cache-key) the uppercased
    experiment instead of being silently dropped."""
    lower = run_all(names=("e13",), overrides={"e13": dict(epochs=2)})
    upper = run_all(names=("E13",), overrides={"E13": dict(epochs=2)})
    assert lower["E13"].render() == upper["E13"].render()
    assert len(lower["E13"].rows) == 2  # the override actually applied


def test_exec_config_process_matches_serial():
    """Experiment-level parity: the process backend changes wall-clock
    behaviour only, never table content."""
    from repro.sim import ExecutionConfig

    kwargs = dict(seed=3, fast=True, **FAST_OVERRIDES["E8"])
    serial = run_experiment("E8", **kwargs)
    par = run_experiment(
        "E8", exec_config=ExecutionConfig(backend="process", workers=2), **kwargs
    )
    assert serial.rows == par.rows


# the five multi-cell sweeps must render bit-identical tables across
# serial, 2-worker, and 4-worker cell-parallel runs; each grid needs more
# than one cell, since run_sweep runs a 1-cell grid in-process whatever
# the backend
CELL_PARALLEL = {
    "E1": dict(FAST_OVERRIDES["E1"], n_values=(128, 256)),
    "E2": FAST_OVERRIDES["E2"],
    "E3": FAST_OVERRIDES["E3"],
    "E5": FAST_OVERRIDES["E5"],
    "E6": dict(FAST_OVERRIDES["E6"], n_values=(256, 512)),
}


@pytest.mark.parametrize("name", CELL_PARALLEL)
def test_sweep_cell_parallel_bit_identical(name):
    from repro.sim import ExecutionConfig

    kwargs = dict(seed=1, fast=True, **CELL_PARALLEL[name])
    assert len(SPEC_BUILDERS[name](**kwargs).cells()) > 1
    serial = run_experiment(name, **kwargs)
    for workers in (2, 4):
        par = run_experiment(
            name,
            exec_config=ExecutionConfig(backend="process", workers=workers),
            **kwargs,
        )
        assert serial.rows == par.rows, f"{name} diverged at {workers} workers"
        assert serial.render() == par.render()


class TestResultCacheIntegration:
    def test_cold_run_vs_cache_hit_identical(self, tmp_path):
        from repro.sim import cells_executed, reset_cells_executed

        kwargs = dict(seed=1, fast=True, cache=True, cache_dir=str(tmp_path),
                      **FAST_OVERRIDES["E1"])
        cold = run_experiment("E1", **kwargs)
        reset_cells_executed()
        warm = run_experiment("E1", **kwargs)
        assert cells_executed() == 0  # nothing re-ran
        assert warm.render() == cold.render()
        assert warm.rows == cold.rows

    def test_force_recomputes(self, tmp_path):
        from repro.sim import cells_executed, reset_cells_executed

        kwargs = dict(seed=1, fast=True, cache=True, cache_dir=str(tmp_path),
                      **FAST_OVERRIDES["E1"])
        run_experiment("E1", **kwargs)
        reset_cells_executed()
        forced = run_experiment("E1", force=True, **kwargs)
        assert cells_executed() > 0
        assert forced.rows == run_experiment("E1", **kwargs).rows

    def test_cache_key_respects_overrides(self, tmp_path):
        from repro.sim import cells_executed, reset_cells_executed

        base = dict(seed=1, fast=True, cache=True, cache_dir=str(tmp_path))
        run_experiment("E1", **base, **FAST_OVERRIDES["E1"])
        reset_cells_executed()
        different = dict(FAST_OVERRIDES["E1"], probes=1000)
        run_experiment("E1", **base, **different)
        assert cells_executed() > 0  # different overrides: a real run

    def test_warm_run_all_reruns_zero_cells(self, tmp_path):
        """ISSUE-2 acceptance: a warm ``run_all --cache`` re-executes zero
        experiment bodies, verified by the cell-execution counter."""
        from repro.sim import cells_executed, reset_cells_executed

        names = ("E1", "E5", "E13")
        overrides = {n: dict(FAST_OVERRIDES[n]) for n in names}
        kwargs = dict(seed=1, fast=True, cache=True, cache_dir=str(tmp_path),
                      names=names, overrides=overrides)
        cold = run_all(**kwargs)
        assert cells_executed() > 0
        reset_cells_executed()
        warm = run_all(**kwargs)
        assert cells_executed() == 0
        assert {k: v.render() for k, v in warm.items()} == {
            k: v.render() for k, v in cold.items()
        }

    def test_run_all_subset_order_and_unknown(self):
        with pytest.raises(ValueError, match="E99"):
            run_all(names=("E99",))

    def test_warm_process_run_all_resolves_in_parent(self, tmp_path, monkeypatch):
        """With every experiment cached, the process-backend run_all loads
        hits in the parent and dispatches nothing to a pool (observed by
        intercepting the dispatch seam — worker-side recomputation would
        also render identically, so render parity alone proves nothing)."""
        import repro.experiments.runner as runner_mod
        from repro.sim import ExecutionConfig

        names = ("E1", "E13")
        overrides = {n: dict(FAST_OVERRIDES[n]) for n in names}
        kwargs = dict(seed=1, fast=True, cache=True, cache_dir=str(tmp_path),
                      names=names, overrides=overrides)
        cold = run_all(**kwargs)

        dispatched = []

        def spying_spawn_map(fn, *iterables, workers):
            items = list(zip(*iterables))
            dispatched.extend(items)
            return [fn(*args) for args in items]

        monkeypatch.setattr(runner_mod, "spawn_map", spying_spawn_map)
        warm = run_all(
            exec_config=ExecutionConfig(backend="process", workers=2), **kwargs
        )
        assert dispatched == []  # every experiment resolved from the cache
        assert {k: v.render() for k, v in warm.items()} == {
            k: v.render() for k, v in cold.items()
        }


def test_run_all_process_threads_serial_config_and_overrides(tmp_path):
    """The spawn-pool path hands workers an explicit serial config plus
    the caller's cache settings and per-experiment overrides
    (regression: ``_run_one`` used to drop the caller's ``exec_config``
    and knew nothing of caching) — so a process-backend ``run_all`` is
    table-identical to the serial path and populates the same cache."""
    from repro.experiments.cache import ResultCache
    from repro.sim import ExecutionConfig

    names = ("E1", "E13")
    overrides = {n: dict(FAST_OVERRIDES[n]) for n in names}
    serial = run_all(seed=1, fast=True, names=names, overrides=overrides)
    par = run_all(
        seed=1, fast=True, names=names, overrides=overrides,
        cache=True, cache_dir=str(tmp_path),
        exec_config=ExecutionConfig(backend="process", workers=2),
    )
    assert {k: v.render() for k, v in par.items()} == {
        k: v.render() for k, v in serial.items()
    }
    # the workers stored their tables under the shared cache root
    rc = ResultCache(tmp_path)
    for name in names:
        hit = rc.load(name, 1, True, overrides[name])
        assert hit is not None and hit.render() == serial[name].render()


def test_e12_per_case_streams_cross_backend_deterministic():
    """E12's churn cases draw from per-case streams spawned off the cell's
    sweep stream (the single entropy source — no seed re-derivation inside
    the case), so serial kernel, vectorized kernel, and a 2-worker spawn
    pool must all render the byte-identical table."""
    from repro.sim import ExecutionConfig

    kwargs = dict(seed=5, fast=True, **FAST_OVERRIDES["E12"])
    serial = run_experiment(
        "E12", exec_config=ExecutionConfig(backend="serial"), **kwargs
    )
    default = run_experiment("E12", **kwargs)
    pooled = run_experiment(
        "E12", exec_config=ExecutionConfig(backend="process", workers=2), **kwargs
    )
    assert serial.render() == default.render() == pooled.render()


@pytest.mark.slow
def test_e4_trajectory_table_independent_of_probe_kernel_scale():
    """Changing only the kernel must never change an E4 table even at a
    different (n, epochs) point than the parity matrix covers."""
    from repro.sim import ExecutionConfig

    kwargs = dict(seed=11, fast=True, n=96, epochs=3, probes=300)
    serial = run_experiment(
        "E4", exec_config=ExecutionConfig(backend="serial"), **kwargs
    )
    vectorized = run_experiment("E4", **kwargs)
    assert serial.render() == vectorized.render()
