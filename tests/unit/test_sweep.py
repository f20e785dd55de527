"""Unit tests: declarative sweep substrate (repro.sim.sweep).

The load-bearing contracts: the grid enumerates in deterministic order,
every cell gets an independent stream keyed by its coordinates (never by
the execution schedule), and the assembled table is bit-identical across
backends and worker counts.  Cell functions live at module level so they
pickle under the ``spawn`` start method.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.sim import (
    CellOut,
    ExecutionConfig,
    SweepSpec,
    cells_executed,
    reset_cells_executed,
    run_sweep,
)


def draw_cell(rng, *, a, b, seed):
    return [[a, b, float(rng.random())]]


def noted_cell(rng, *, k):
    return CellOut(rows=[[k, float(rng.random())]], notes=(f"note-{k}",), aux=k * 10)


def single_cell(rng, *, seed):
    return [["only", seed, float(rng.random())]]


def config_probe_cell(rng, *, k, exec_config):
    backend = "none" if exec_config is None else exec_config.backend
    return [[k, backend]]


def kernel_probe_cell(rng, *, k, kernel):
    return [[k, kernel]]


def failing_cell(rng, *, k):
    if k == 3:
        raise ValueError(f"cell k={k} failed")
    return [[k, float(rng.random())]]


def suicidal_cell(rng, *, a, b, seed):
    """Dies when run inside a pool worker (a crashed worker box); the
    in-process fallback in the parent runs it normally."""
    if multiprocessing.current_process().name != "MainProcess":
        os._exit(137)
    return draw_cell(rng, a=a, b=b, seed=seed)


def _spec(**kw):
    defaults = dict(
        experiment="TOY",
        title="toy sweep",
        headers=["a", "b", "value"],
        cell=draw_cell,
        axes=(("a", (1, 2)), ("b", ("x", "y", "z"))),
        context=dict(seed=0),
        seed=0,
    )
    defaults.update(kw)
    return SweepSpec(**defaults)


class TestGrid:
    def test_grid_order_is_product_order(self):
        cells = _spec().cells()
        assert [c.coords for c in cells] == [
            {"a": 1, "b": "x"}, {"a": 1, "b": "y"}, {"a": 1, "b": "z"},
            {"a": 2, "b": "x"}, {"a": 2, "b": "y"}, {"a": 2, "b": "z"},
        ]
        assert [c.index for c in cells] == list(range(6))

    def test_empty_axes_is_single_cell(self):
        cells = _spec(axes=()).cells()
        assert len(cells) == 1 and cells[0].coords == {}

    def test_streams_keyed_by_seed_experiment_and_coords(self):
        spec = _spec()
        cells = spec.cells()

        def draws(s, c):
            ss = s.seed_sequence_for(c)
            return np.random.Generator(np.random.PCG64(ss)).random(2).tolist()

        assert draws(spec, cells[0]) == draws(_spec(), cells[0])
        assert draws(spec, cells[0]) != draws(spec, cells[1])
        assert draws(spec, cells[0]) != draws(_spec(seed=1), cells[0])
        assert draws(spec, cells[0]) != draws(_spec(experiment="TOY2"), cells[0])


class TestRunSweep:
    def test_deterministic(self):
        assert run_sweep(_spec()).render() == run_sweep(_spec()).render()

    def test_rows_in_grid_order(self):
        table = run_sweep(_spec())
        assert [(r[0], r[1]) for r in table.rows] == [
            (1, "x"), (1, "y"), (1, "z"), (2, "x"), (2, "y"), (2, "z"),
        ]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_process_backend_bit_identical(self, workers):
        serial = run_sweep(_spec())
        par = run_sweep(
            _spec(), exec_config=ExecutionConfig(backend="process", workers=workers)
        )
        assert serial.rows == par.rows
        assert serial.render() == par.render()

    def test_cells_addressable_by_coordinates(self):
        """A cell's stream is a pure function of (seed, experiment, coords):
        any sub-grid — even one that reorders or drops earlier axis values —
        reproduces exactly its slice of the full sweep, which is what lets
        a dispatcher hand out cells without coordination."""
        full = run_sweep(_spec())
        sub = run_sweep(_spec(axes=(("a", (2, 1)), ("b", ("z", "x")))))
        by_coords = {(r[0], r[1]): r for r in full.rows}
        assert [by_coords[(r[0], r[1])] for r in sub.rows] == sub.rows
        solo = run_sweep(_spec(axes=(("a", (2,)), ("b", ("y",)))))
        assert solo.rows == [by_coords[(2, "y")]]

    def test_vectorized_backend_matches_serial(self):
        # cell-level execution has no batch form: vectorized runs the same
        # in-process loop and must be bit-identical
        serial = run_sweep(_spec())
        vec = run_sweep(_spec(), exec_config=ExecutionConfig(backend="vectorized"))
        assert serial.rows == vec.rows

    def test_unpicklable_cell_falls_back_serial(self):
        bad = _spec(cell=lambda rng, *, a, b, seed: [[a, b, float(rng.random())]])
        reference = run_sweep(bad)
        with pytest.warns(RuntimeWarning, match="picklable"):
            par = run_sweep(
                bad, exec_config=ExecutionConfig(backend="process", workers=2)
            )
        assert reference.rows == par.rows

    def test_bad_cell_return_rejected(self):
        spec = _spec(cell=lambda rng, *, a, b, seed: {"rows": []})
        with pytest.raises(TypeError, match="CellOut"):
            run_sweep(spec)


class TestStackedPass:
    """Process-backend spans at the edge of the pool size: a 2-cell grid
    run by as many workers as cells, and by more workers than cells."""

    @pytest.mark.parametrize("workers", [2, 3])
    def test_process_spans_bit_identical(self, workers):
        spec = _spec(axes=(("a", (1, 2)), ("b", ("x",))))
        reference = run_sweep(spec)
        cfg = ExecutionConfig(backend="process", workers=workers)
        par = run_sweep(spec, exec_config=cfg)
        assert par.rows == reference.rows
        assert par.render() == reference.render()


class TestSpanPath:
    """The process backend's span path: ``min(workers, cells)`` contiguous
    spans in one map over the warm pool, reassembled in grid order."""

    @pytest.mark.parametrize(
        "cells,workers", [(3, 2), (5, 2), (5, 3), (6, 4), (7, 3)]
    )
    def test_uneven_spans_bit_identical(self, cells, workers):
        spec = _spec(axes=(("a", tuple(range(cells))), ("b", ("x",))))
        reference = run_sweep(spec)
        cfg = ExecutionConfig(backend="process", workers=workers)
        par = run_sweep(spec, exec_config=cfg)
        assert [r[0] for r in par.rows] == list(range(cells))
        assert par.rows == reference.rows
        assert par.render() == reference.render()

    def test_pooled_notes_and_aux_reach_finalize(self):
        seen = []

        def finalize(table, results, context):
            seen.append([r.aux for r in results])
            table.add_note("from finalize")

        spec = _spec(
            cell=noted_cell, axes=(("k", (1, 2, 3)),), context={},
            headers=["k", "value"], finalize=finalize,
        )
        reference = run_sweep(spec)
        cfg = ExecutionConfig(backend="process", workers=2)
        par = run_sweep(spec, exec_config=cfg)
        assert par.notes == reference.notes == [
            "note-1", "note-2", "note-3", "from finalize",
        ]
        assert seen == [[10, 20, 30], [10, 20, 30]]
        assert par.rows == reference.rows

    def test_one_pool_map_per_sweep(self):
        from repro.telemetry import TelemetryBuffer, set_default_writer

        buf = TelemetryBuffer()
        previous = set_default_writer(buf)
        try:
            run_sweep(_spec(), ExecutionConfig(backend="process", workers=2))
        finally:
            set_default_writer(previous)
        # pool workers emit no per-cell events; the parent emits the
        # run summary and draws the pool exactly once
        assert buf.of_type("sweep.cell") == []
        (run,) = buf.of_type("sweep.run")
        assert run["cells"] == 6 and run["backend"] == "process"
        assert run["kernel"] == "vectorized"
        draws = buf.of_type("pool.spawn") + buf.of_type("pool.reuse")
        assert len(draws) == 1

    def test_cell_error_in_a_worker_propagates(self):
        spec = _spec(
            cell=failing_cell, axes=(("k", (1, 2, 3, 4)),), context={},
            headers=["k", "value"],
        )
        cfg = ExecutionConfig(backend="process", workers=2)
        with pytest.raises(ValueError, match="k=3 failed"):
            run_sweep(spec, exec_config=cfg)
        # an exception is not a crash: the warm pool still serves sweeps
        reference = run_sweep(_spec())
        assert run_sweep(_spec(), exec_config=cfg).rows == reference.rows

    def test_killed_worker_falls_back_to_the_serial_table(self):
        from repro.telemetry import TelemetryBuffer, set_default_writer

        spec = _spec(cell=suicidal_cell)
        reference = run_sweep(spec)
        buf = TelemetryBuffer()
        previous = set_default_writer(buf)
        try:
            with pytest.warns(RuntimeWarning, match="process pool broke"):
                par = run_sweep(
                    spec, exec_config=ExecutionConfig(backend="process", workers=2)
                )
        finally:
            set_default_writer(previous)
        assert par.rows == reference.rows
        assert par.render() == reference.render()
        (broken,) = buf.of_type("pool.broken")
        assert broken["workers"] == 2


class TestCellOut:
    def test_notes_and_finalize_aux(self):
        seen = {}

        def finalize(table, results, context):
            seen["aux"] = [r.aux for r in results]
            table.add_note("from finalize")

        spec = _spec(
            cell=noted_cell, axes=(("k", (1, 2)),), context={},
            headers=["k", "value"], finalize=finalize,
        )
        table = run_sweep(spec)
        assert table.notes == ["note-1", "note-2", "from finalize"]
        assert seen["aux"] == [10, 20]

    def test_spec_notes_after_cell_notes(self):
        spec = _spec(
            cell=noted_cell, axes=(("k", (1,)),), context={},
            headers=["k", "value"], notes=("static",),
        )
        assert run_sweep(spec).notes == ["note-1", "static"]


class TestExecConfigPassthrough:
    def test_in_process_cell_sees_config(self):
        spec = _spec(
            cell=config_probe_cell, axes=(("k", (1,)),), context={},
            headers=["k", "backend"], pass_exec_config=True,
        )
        assert run_sweep(spec).rows == [[1, "none"]]
        cfg = ExecutionConfig(backend="process", workers=2)
        # single-cell grid: runs in-process, config passes through
        assert run_sweep(spec, exec_config=cfg).rows == [[1, "process"]]

    def test_pooled_cells_get_serial_inner_config(self):
        spec = _spec(
            cell=config_probe_cell, axes=(("k", (1, 2)),), context={},
            headers=["k", "backend"], pass_exec_config=True,
        )
        cfg = ExecutionConfig(backend="process", workers=2)
        # multi-cell grid: cells ship to workers, inner loops must be serial
        assert run_sweep(spec, exec_config=cfg).rows == [[1, "none"], [2, "none"]]


class TestKernelPassthrough:
    def _spec(self):
        return _spec(
            cell=kernel_probe_cell, axes=(("k", (1, 2)),), context={},
            headers=["k", "kernel"], pass_kernel=True,
        )

    def test_default_is_vectorized(self):
        # no exec config: the vectorized kernels are the promoted default
        assert run_sweep(self._spec()).rows == [
            [1, "vectorized"], [2, "vectorized"],
        ]

    def test_serial_backend_selects_reference_loops(self):
        cfg = ExecutionConfig(backend="serial")
        assert run_sweep(self._spec(), exec_config=cfg).rows == [
            [1, "serial"], [2, "serial"],
        ]

    def test_vectorized_backend_selects_kernels(self):
        cfg = ExecutionConfig(backend="vectorized")
        assert run_sweep(self._spec(), exec_config=cfg).rows == [
            [1, "vectorized"], [2, "vectorized"],
        ]

    def test_pooled_cells_keep_vectorized_kernels(self):
        cfg = ExecutionConfig(backend="process", workers=2)
        assert run_sweep(self._spec(), exec_config=cfg).rows == [
            [1, "vectorized"], [2, "vectorized"],
        ]

    def test_explicit_kernel_overrides_backend(self):
        cfg = ExecutionConfig(backend="serial", kernel="vectorized")
        assert run_sweep(self._spec(), exec_config=cfg).rows == [
            [1, "vectorized"], [2, "vectorized"],
        ]

    def test_invalid_kernel_rejected(self):
        for kernel in ("gpu", "stacked"):
            with pytest.raises(ValueError, match="kernel"):
                ExecutionConfig(kernel=kernel)


class TestExecutionCounter:
    def test_counts_and_resets(self):
        reset_cells_executed()
        run_sweep(_spec())
        assert cells_executed() == 6
        run_sweep(_spec(axes=(), cell=single_cell))
        assert cells_executed() == 7
        reset_cells_executed()
        assert cells_executed() == 0


class TestSweepTelemetry:
    """run_sweep emits per-cell timings and a run summary through the
    process-default telemetry sink; no sink, no overhead, no events."""

    def test_serial_sweep_emits_cell_and_run_events(self):
        from repro.telemetry import TelemetryBuffer, set_default_writer

        buf = TelemetryBuffer()
        previous = set_default_writer(buf)
        try:
            run_sweep(_spec())
        finally:
            set_default_writer(previous)
        cells = buf.of_type("sweep.cell")
        assert len(cells) == 6  # 2 x 3 grid
        assert {e["index"] for e in cells} == set(range(6))
        assert all(e["experiment"] == "TOY" for e in cells)
        assert all(e["kernel"] == "vectorized" for e in cells)
        (run,) = buf.of_type("sweep.run")
        assert run["cells"] == 6 and run["backend"] == "serial"
        assert run["wall_s"] >= max(e["wall_s"] for e in cells)

    def test_serial_backend_labels_kernel(self):
        from repro.telemetry import TelemetryBuffer, set_default_writer

        buf = TelemetryBuffer()
        previous = set_default_writer(buf)
        try:
            run_sweep(_spec(), ExecutionConfig(backend="serial"))
        finally:
            set_default_writer(previous)
        (run,) = buf.of_type("sweep.run")
        assert run["kernel"] == "serial" and run["backend"] == "serial"

    def test_unpicklable_cell_emits_degrade_event(self):
        from repro.telemetry import TelemetryBuffer, set_default_writer

        bad = _spec(cell=lambda rng, *, a, b, seed: [[a, b, float(rng.random())]])
        buf = TelemetryBuffer()
        previous = set_default_writer(buf)
        try:
            with pytest.warns(RuntimeWarning, match="picklable"):
                run_sweep(
                    bad, exec_config=ExecutionConfig(backend="process", workers=2)
                )
        finally:
            set_default_writer(previous)
        (event,) = buf.of_type("sweep.degrade")
        assert event["experiment"] == "TOY"
        assert event["reason"] == "unpicklable-cell"
        assert "detail" in event

    def test_no_sink_no_events(self):
        from repro.telemetry import reset_default_writer, set_default_writer

        previous = set_default_writer(None)
        try:
            table = run_sweep(_spec())  # must not raise, must not emit
            assert len(table.rows) == 6
        finally:
            set_default_writer(previous)
            reset_default_writer()
