"""Simulation substrate: RNG discipline, Monte-Carlo estimates, the warm
worker pool, and the declarative sweep substrate.

``repro.sim.sweep`` runs experiment grids: a :class:`SweepSpec` declares
axes plus a per-cell function, each cell gets an independent spawned RNG
stream keyed by its coordinates, and cells execute on any backend
(``serial`` | ``process`` | ``vectorized``, selected via
:class:`ExecutionConfig` and the ``--backend``/``--workers`` CLI flags)
with bit-identical tables at any worker count.
"""

from .montecarlo import (
    BACKENDS,
    KERNELS,
    ExecutionConfig,
    MCResult,
    aggregate_trials,
    resolve_kernel,
    spawn_map,
    wilson_interval,
)
from .pool import discard_pool, get_pool, pool_stats, shutdown_pool
from .rng import child, make_rng, spawn, stream_for, tag_entropy
from .sweep import (
    Cell,
    CellOut,
    CellResult,
    SweepSpec,
    cells_executed,
    reset_cells_executed,
    run_sweep,
)

__all__ = [
    "BACKENDS",
    "KERNELS",
    "Cell",
    "CellOut",
    "CellResult",
    "ExecutionConfig",
    "MCResult",
    "SweepSpec",
    "aggregate_trials",
    "cells_executed",
    "child",
    "discard_pool",
    "get_pool",
    "make_rng",
    "pool_stats",
    "reset_cells_executed",
    "resolve_kernel",
    "run_sweep",
    "shutdown_pool",
    "spawn",
    "spawn_map",
    "stream_for",
    "tag_entropy",
    "wilson_interval",
]
