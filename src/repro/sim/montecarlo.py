"""Execution configuration, the warm-pool map, and Monte-Carlo estimates.

Every experiment runs as a declarative sweep (:mod:`repro.sim.sweep`);
this module holds what the sweeps share about how they execute and how
their trial values become estimates:

* :class:`ExecutionConfig` selects the backend (``serial`` | ``process``
  | ``vectorized``, surfaced on the CLI as ``--backend``/``--workers``)
  and, optionally, the cell kernel;
* :func:`spawn_map` is the order-preserving map across the warm spawn
  pool that every process-backend call site goes through;
* :func:`aggregate_trials` turns trial values into an :class:`MCResult`.

Orthogonal to the backend (how cells are *scheduled*), a sweep cell may
support two *kernels* (how the cell body computes): ``"vectorized"``
array kernels — the default execution path for the static-case
experiments — and the ``"serial"`` reference loops they are
parity-tested against.  :func:`resolve_kernel` maps an
:class:`ExecutionConfig` to the kernel its cells should use: an explicit
``backend="serial"`` requests the reference loops, everything else (and
no config at all) the kernels, and ``ExecutionConfig(kernel=...)``
overrides the mapping (e.g. a process-backend run of the reference
loops).  Kernels are byte-identical by contract, so the choice never
shows up in a table.

Confidence intervals: 0/1-valued trials are detected and get the Wilson
score interval (the normal approximation produces ``lo < 0`` / ``hi > 1``
exactly in the rare-event regime the paper's probabilities live in); other
trials whose values all lie in [0, 1] get their normal-approximation CI
clamped to [0, 1].
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..telemetry import emit_default

__all__ = [
    "BACKENDS",
    "KERNELS",
    "ExecutionConfig",
    "MCResult",
    "aggregate_trials",
    "resolve_kernel",
    "spawn_map",
    "wilson_interval",
]

BACKENDS = ("serial", "process", "vectorized")
KERNELS = ("serial", "vectorized")


@dataclass(frozen=True)
class ExecutionConfig:
    """How an experiment sweep should execute.

    Parameters
    ----------
    backend:
        ``"serial"`` | ``"process"`` | ``"vectorized"``.
    workers:
        Process count for the ``process`` backend (``None`` -> CPU count).
    kernel:
        Explicit cell-kernel override (``"serial"`` | ``"vectorized"``);
        ``None`` derives it from the backend via :func:`resolve_kernel`.
    """

    backend: str = "serial"
    workers: int | None = None
    kernel: str | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.kernel is not None and self.kernel not in KERNELS:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; choose from {KERNELS}"
            )

    def resolved_workers(self) -> int:
        return self.workers if self.workers is not None else (os.cpu_count() or 1)

    def resolved_kernel(self) -> str:
        return resolve_kernel(self)


@dataclass(frozen=True)
class MCResult:
    """Aggregated Monte-Carlo estimate."""

    mean: float
    std: float
    lo: float              # 95% CI lower bound
    hi: float              # 95% CI upper bound
    trials: int
    values: np.ndarray

    def __str__(self) -> str:  # pragma: no cover
        return f"{self.mean:.4g} [{self.lo:.4g}, {self.hi:.4g}] (x{self.trials})"


def resolve_kernel(config: "ExecutionConfig | None") -> str:
    """Which cell kernel an execution config selects.

    ``None`` (no config) and every non-``serial`` backend resolve to the
    ``"vectorized"`` array kernels — the promoted default execution path.
    An explicit ``backend="serial"`` is the request for the reference loop
    implementations (the parity oracle).  ``ExecutionConfig.kernel``
    overrides both, which is how a process-backend run selects the
    reference loops.
    """
    if config is None:
        return "vectorized"
    if config.kernel is not None:
        return config.kernel
    return "serial" if config.backend == "serial" else "vectorized"


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (robust at p ~ 0,
    where the experiments' rare-event probabilities live)."""
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def aggregate_trials(values) -> MCResult:
    """Aggregate trial values into an :class:`MCResult`.

    Cells compute their trial values through batched kernels and share
    this one bookkeeping path, so a kernel choice can never change a
    reported statistic.
    """
    vals = np.asarray(values, dtype=float)
    trials = int(vals.size)
    if trials == 0:
        return MCResult(mean=float("nan"), std=0.0, lo=0.0, hi=1.0,
                        trials=0, values=vals)
    mean = float(vals.mean())
    std = float(vals.std(ddof=1)) if trials > 1 else 0.0
    is_binary = bool(np.isin(vals, (0.0, 1.0)).all())
    if is_binary:
        # Normal approximation is dishonest at rare-event p: Wilson instead.
        lo, hi = wilson_interval(int(vals.sum()), trials)
    else:
        half = 1.96 * std / math.sqrt(max(1, trials))
        lo, hi = mean - half, mean + half
        if 0.0 <= float(vals.min()) and float(vals.max()) <= 1.0:
            lo, hi = max(0.0, lo), min(1.0, hi)
    return MCResult(mean=mean, std=std, lo=lo, hi=hi, trials=trials, values=vals)


def _call_packed(fn: Callable, *args):
    """Worker-side shm-transport shim: run ``fn`` and pack its result.

    Large arrays in the result land in shared segments
    (:func:`repro.sim.shm.shm_dumps`); only the small header pickle
    travels back through the executor's result pipe.
    """
    from . import shm as shm_mod

    return shm_mod.shm_dumps(fn(*args))


def _call_shm_input(fn: Callable, pack_result: bool, blob: bytes):
    """Worker-side shim for zero-copy inputs (composable with result shm).

    ``blob`` is an :class:`~repro.sim.shm.ShmInputBatch` pickle of the
    task's argument tuple: unpickling attaches the shared input segments
    without retiring them (the producer owns their lifecycle), so every
    worker of the map reads the same context arrays from the same pages.
    """
    from . import shm as shm_mod

    args = pickle.loads(blob)
    result = fn(*args)
    return shm_mod.shm_dumps(result) if pack_result else result


def spawn_map(
    fn: Callable,
    *iterables,
    workers: int,
    mp_method: str = "spawn",
    shm_transport: bool = False,
    shm_input_transport: bool = False,
) -> list:
    """Order-preserving ``map(fn, *iterables)`` across the warm spawn pool.

    The shared dispatch seam for every process-backend call site (sweep
    spans, E12 churn cases, ``run_all`` experiments): gates on worker and
    item count (either <= 1 runs serially in-process), draws workers from
    the process-wide warm pool (``repro.sim.pool`` — spawn cost is paid
    once per process, not once per call), and degrades to the serial map
    with a warning when the pool's workers die (``BrokenProcessPool``)
    instead of crashing mid-suite.  ``fn`` must be module-level
    (picklable under ``spawn``).

    ``shm_transport=True`` routes results through shared-memory segments
    (:mod:`repro.sim.shm`): workers pack each result with
    :func:`~repro.sim.shm.shm_dumps`, the parent decodes — byte-equal
    values, but large arrays cross the process boundary as headers, not
    pickled payloads.  A broken pool additionally sweeps the run's
    orphaned segments (a worker killed mid-write leaves its segment with
    no consumer).

    ``shm_input_transport=True`` is the mirror for the *task* direction:
    each item's argument tuple is packed by one
    :class:`~repro.sim.shm.ShmInputBatch`, so large input arrays (a built
    graph's CSR arrays, probe batches, a sweep span's shared context)
    cross as keep-on-load segments — and an array shared by every item
    ships **once**, not once per task.  Values are byte-equal either way;
    volume lands in a ``shm.input_bytes`` event.  Composable with
    ``shm_transport``.
    """
    items = list(zip(*iterables))
    nworkers = min(workers, len(items))
    if nworkers <= 1:
        return [fn(*args) for args in items]

    from concurrent.futures.process import BrokenProcessPool

    from . import shm as shm_mod
    from .pool import discard_pool, get_pool

    try:
        pool = get_pool(nworkers, mp_method)
        # map over the materialized items — the caller's iterables may
        # be one-shot generators already consumed into `items` above
        if not (shm_transport or shm_input_transport):
            return list(pool.map(fn, *zip(*items)))
        if shm_input_transport:
            batch = shm_mod.ShmInputBatch()
            try:
                blobs = [batch.dumps(args) for args in items]
                input_stats = (batch.shm_bytes, batch.segments,
                               sum(len(b) for b in blobs))
                packed = list(pool.map(
                    functools.partial(_call_shm_input, fn, shm_transport),
                    blobs,
                ))
            finally:
                # map() has returned (every worker copied out) or raised
                # (the fallback path must not inherit live input segments)
                batch.unlink()
            emit_default(
                "shm.input_bytes",
                shm_bytes=int(input_stats[0]),
                pickle_bytes=int(input_stats[2]),
                segments=int(input_stats[1]),
            )
        else:
            packed = list(
                pool.map(functools.partial(_call_packed, fn), *zip(*items))
            )
        if not shm_transport:
            return packed
        with shm_mod.collect_load_stats() as stats:
            results = [shm_mod.shm_loads(blob) for blob in packed]
        emit_default(
            "shm.bytes",
            shm_bytes=int(stats.shm_bytes),
            pickle_bytes=int(sum(len(blob) for blob in packed)),
            segments=int(stats.segments),
        )
        return results
    except BrokenProcessPool as exc:
        discard_pool()
        swept = shm_mod.sweep_run_segments()
        emit_default("pool.broken", workers=nworkers, swept_segments=len(swept))
        warnings.warn(
            f"process pool broke ({exc}); falling back to the serial path",
            RuntimeWarning,
            stacklevel=2,
        )
        return [fn(*args) for args in items]
