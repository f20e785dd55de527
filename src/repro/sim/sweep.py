"""Declarative sweep substrate: grids of independent, addressable cells.

The paper's experiment suite is a grid of (topology x n x knob) sweeps.
Historically every experiment hand-rolled nested loops over one shared RNG
stream, which forced sweeps to run serially — the process pool could only
dispatch whole experiments.  This module replaces the loops with a
declarative :class:`SweepSpec`: an experiment describes its grid (ordered
axes plus a per-cell function) and the substrate

* enumerates the cells in deterministic grid order (itertools.product over
  the axes as declared),
* spawns one independent RNG stream per cell — a
  ``numpy.random.SeedSequence`` whose entropy is keyed by
  ``(seed, experiment)`` and whose spawn key is a stable digest of the
  cell's coordinates, so a cell's stream is a pure function of
  ``(seed, experiment, coords)`` and never of the execution schedule or
  of which other cells the grid happens to contain,
* executes the cells on any :class:`~repro.sim.montecarlo.ExecutionConfig`
  backend (in-process ``serial`` | ``process``) with **bit-identical
  results at any worker count**, and
* assembles the resulting :class:`~repro.analysis.tables.TableResult`
  rows in grid order, so the rendered table is byte-identical no matter
  how the cells were scheduled.

Cells are addressable: because streams are keyed by coordinates, a single
cell can be re-run in isolation and reproduce exactly its slice of the
full sweep — the seed discipline that lets the result cache and the
sharded dispatcher (:mod:`repro.sim.dispatch`) hand out cells without
coordination.

Under the ``process`` backend the grid splits into ``min(workers,
cells)`` contiguous spans; each span is one warm-pool task that runs the
cell function on each of its cells' own streams, so the schedule never
reaches a value.

The module also keeps a cell-execution counter (:func:`cells_executed`)
so tests — and the CI cache smoke job — can assert that a warm cache run
re-executes zero experiment bodies.
"""

from __future__ import annotations

import itertools
import pickle
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..analysis.tables import TableResult
from ..telemetry import emit_default, span
from .montecarlo import ExecutionConfig, spawn_map
from .rng import tag_entropy

__all__ = [
    "Cell",
    "CellOut",
    "CellResult",
    "SweepSpec",
    "assemble_table",
    "cells_executed",
    "count_cells_executed",
    "reset_cells_executed",
    "run_sweep",
]

# Cells executed (or dispatched to workers) since the last reset — the
# observable the cache tests use to prove a warm run re-ran nothing.
_CELLS_EXECUTED = 0


def cells_executed() -> int:
    """Cells executed/dispatched by :func:`run_sweep` since the last reset."""
    return _CELLS_EXECUTED


def count_cells_executed(n: int = 1) -> None:
    """Record ``n`` cell executions (shared with the sharded dispatcher,
    whose workers execute cells outside :func:`run_sweep`)."""
    global _CELLS_EXECUTED
    _CELLS_EXECUTED += n


def reset_cells_executed() -> None:
    global _CELLS_EXECUTED
    _CELLS_EXECUTED = 0


@dataclass(frozen=True)
class Cell:
    """One grid point: flat index (grid order) plus axis coordinates."""

    index: int
    coords: dict


@dataclass(frozen=True)
class CellOut:
    """What a cell function may return.

    ``rows`` are appended to the table in grid order; ``notes`` likewise;
    ``aux`` is carried to the spec's ``finalize`` hook (e.g. E2 keeps the
    per-cell slope so the spread note can be computed over the whole grid).
    A bare ``list`` of rows is also accepted as shorthand.
    """

    rows: list
    notes: tuple = ()
    aux: object = None


@dataclass(frozen=True)
class CellResult:
    """A completed cell: its identity plus its normalized output."""

    index: int
    coords: dict
    rows: list
    notes: tuple
    aux: object


CellFn = Callable[..., "CellOut | list"]


@dataclass(frozen=True)
class SweepSpec:
    """A declarative experiment grid.

    Parameters
    ----------
    experiment, title, headers:
        Forwarded to the assembled :class:`TableResult`.
    cell:
        ``cell(rng, **coords, **context) -> CellOut | list[rows]``.  Must be
        a module-level callable (picklable) for the ``process`` backend to
        ship it to spawn workers; unpicklable cells degrade to the
        in-process path with a warning and a ``sweep.degrade`` event.
    axes:
        Ordered ``(name, values)`` pairs; the grid is their cartesian
        product in declaration order.  An empty ``axes`` declares a
        single-cell grid (the whole experiment body is one cell).
    context:
        Static keyword arguments passed to every cell (resolved knobs,
        the experiment seed, ...).
    seed:
        Root seed for the per-cell streams.
    finalize:
        ``finalize(table, results, context)`` run in the parent after all
        cells complete — for notes or rows that need the whole grid.
    pass_exec_config:
        When True the cell receives an ``exec_config=`` keyword: the
        caller's config when cells run in-process, ``None`` when cells are
        themselves dispatched across a process pool (pools do not nest).
    notes:
        Static notes appended after the per-cell notes.
    """

    experiment: str
    title: str
    headers: Sequence[str]
    cell: CellFn
    axes: tuple = ()
    context: dict = field(default_factory=dict)
    seed: int = 0
    finalize: Callable[[TableResult, list, dict], None] | None = None
    pass_exec_config: bool = False
    notes: tuple = ()

    def cells(self) -> list[Cell]:
        """The grid in deterministic order (product of axes as declared)."""
        if not self.axes:
            return [Cell(index=0, coords={})]
        names = [name for name, _ in self.axes]
        return [
            Cell(index=i, coords=dict(zip(names, combo)))
            for i, combo in enumerate(
                itertools.product(*(tuple(vals) for _, vals in self.axes))
            )
        ]

    def seed_sequence_for(self, cell: Cell) -> np.random.SeedSequence:
        """The cell's independent stream, keyed by its coordinates.

        The entropy names the sweep (``seed``, experiment) and the spawn
        key is a digest of the coordinate mapping itself — exactly the
        child ``SeedSequence.spawn`` would hand out, but addressed by
        *coordinates* rather than by a grid counter.  A cell therefore
        reproduces its slice of the full sweep even when re-run alone or
        inside a sub-grid (the addressability a sharded dispatcher needs),
        and never depends on which worker runs it.
        """
        coord_key = tuple(
            (name, repr(value)) for name, value in cell.coords.items()
        )
        # the seed goes in whole (SeedSequence takes arbitrary non-negative
        # ints); truncating it would alias seeds 2^32 apart onto one stream
        return np.random.SeedSequence(
            entropy=[self.seed, tag_entropy(self.experiment)],
            spawn_key=(tag_entropy(coord_key),),
        )


def _normalize(index: int, coords: dict, out) -> CellResult:
    if isinstance(out, CellOut):
        return CellResult(index, coords, list(out.rows), tuple(out.notes), out.aux)
    if isinstance(out, list):
        return CellResult(index, coords, out, (), None)
    raise TypeError(
        f"cell for {coords!r} returned {type(out).__name__}; "
        "expected CellOut or a list of rows"
    )


def _run_cell(
    fn: CellFn, cell: Cell, seed_seq: np.random.SeedSequence, context: dict
) -> CellResult:
    """Run one cell on its own stream and normalize its output."""
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    return _normalize(cell.index, cell.coords, fn(rng, **cell.coords, **context))


def _exec_span(payload) -> list[CellResult]:
    """Worker entry point: run one contiguous span of cells in grid order.

    Module-level (picklable under the ``spawn`` start method); the cell
    function arrives pre-pickled so every worker unpickles the identical
    callable, and each cell runs on the seed sequence the parent spawned
    for it.
    """
    fn_bytes, cells, seed_seqs, context = payload
    fn: CellFn = pickle.loads(fn_bytes)
    return [_run_cell(fn, c, ss, context) for c, ss in zip(cells, seed_seqs)]


def assemble_table(spec: SweepSpec, results: Sequence[CellResult]) -> TableResult:
    """Assemble completed cells into the sweep's table, in grid order.

    The single assembly path shared by :func:`run_sweep` and the sharded
    dispatcher's reassembler: rows then notes in ascending grid index,
    static spec notes, then the ``finalize`` hook — so a table reassembled
    from remotely-executed cells is byte-identical to the local one by
    construction, not by parallel maintenance of two code paths.
    """
    ordered = sorted(results, key=lambda r: r.index)
    table = TableResult(
        experiment=spec.experiment,
        title=spec.title,
        headers=list(spec.headers),
    )
    for res in ordered:
        for row in res.rows:
            table.rows.append(list(row))
    for res in ordered:
        for note in res.notes:
            table.add_note(note)
    for note in spec.notes:
        table.add_note(note)
    if spec.finalize is not None:
        spec.finalize(table, ordered, dict(spec.context))
    return table


def run_sweep(
    spec: SweepSpec, exec_config: ExecutionConfig | None = None
) -> TableResult:
    """Execute a sweep and assemble its table in deterministic grid order.

    The per-cell seed sequences are spawned in the parent before any cell
    runs, and rows are reassembled by grid index, so the table content is
    bit-identical across backends and worker counts.  Multi-cell grids
    under the ``process`` backend split into ``min(workers, cells)``
    contiguous spans, one warm-pool task each; single-cell grids always
    run in-process (where an ``exec_config``-aware cell may still
    parallelize its inner trial loops).  With a telemetry sink configured
    the sweep emits one ``span`` (phase ``sweep.<EXP>``) and each
    in-process cell one more (``sweep.<EXP>.cell``).
    """
    global _CELLS_EXECUTED
    cells = spec.cells()
    seed_seqs = [spec.seed_sequence_for(c) for c in cells]
    use_pool = (
        exec_config is not None
        and exec_config.backend == "process"
        and len(cells) > 1
        and exec_config.resolved_workers() > 1
    )
    fn_bytes = None
    if use_pool:
        try:
            fn_bytes = pickle.dumps(spec.cell)
        except Exception as exc:  # lambdas, closures, bound local state
            emit_default(
                "sweep.degrade",
                experiment=spec.experiment,
                reason="unpicklable-cell",
                detail=repr(exc)[:200],
            )
            warnings.warn(
                f"sweep cell {spec.cell!r} is not picklable ({exc}); "
                "falling back to the serial path",
                RuntimeWarning,
                stacklevel=2,
            )
            use_pool = False
    # resolve the inner config only once use_pool is final: cells shipped to
    # workers run their inner loops serially (process pools do not nest),
    # cells running in-process — including fallbacks — keep the caller's
    context = dict(spec.context)
    if spec.pass_exec_config:
        context["exec_config"] = None if use_pool else exec_config

    backend = "serial" if exec_config is None else exec_config.backend
    phase = f"sweep.{spec.experiment}"
    _CELLS_EXECUTED += len(cells)
    results: list[CellResult] = []
    with span(phase, cells=len(cells), backend=backend):
        if use_pool:
            workers = exec_config.resolved_workers()
            spans = np.array_split(
                np.arange(len(cells)), min(workers, len(cells))
            )
            payloads = [
                (fn_bytes, [cells[i] for i in idx], [seed_seqs[i] for i in idx],
                 context)
                for idx in spans
            ]
            for span_results in spawn_map(_exec_span, payloads, workers=workers):
                results.extend(span_results)
        else:
            for c, ss in zip(cells, seed_seqs):
                with span(f"{phase}.cell", index=c.index):
                    results.append(_run_cell(spec.cell, c, ss, context))

    return assemble_table(spec, results)
