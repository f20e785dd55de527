"""Execution configuration, the warm-pool map, and Monte-Carlo estimates.

Every experiment runs as a declarative sweep (:mod:`repro.sim.sweep`);
this module holds what the sweeps share about how they execute and how
their trial values become estimates:

* :class:`ExecutionConfig` selects the backend (``serial`` = in-process
  | ``process``, surfaced on the CLI as ``--backend``/``--workers``);
* :func:`spawn_map` is the order-preserving map across the warm spawn
  pool that every process-backend call site goes through;
* :func:`aggregate_trials` turns trial values into an :class:`MCResult`.

Confidence intervals: 0/1-valued trials are detected and get the Wilson
score interval (the normal approximation produces ``lo < 0`` / ``hi > 1``
exactly in the rare-event regime the paper's probabilities live in); other
trials whose values all lie in [0, 1] get their normal-approximation CI
clamped to [0, 1].
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..telemetry import emit_default

__all__ = [
    "BACKENDS",
    "ExecutionConfig",
    "MCResult",
    "aggregate_trials",
    "spawn_map",
    "wilson_interval",
]

BACKENDS = ("serial", "process")


@dataclass(frozen=True)
class ExecutionConfig:
    """How an experiment sweep should execute.

    Parameters
    ----------
    backend:
        ``"serial"`` (cells run in-process, one after another) |
        ``"process"`` (cells dispatched across the warm spawn pool).
    workers:
        Process count for the ``process`` backend (``None`` -> CPU count).
    """

    backend: str = "serial"
    workers: int | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1")

    def resolved_workers(self) -> int:
        return self.workers if self.workers is not None else (os.cpu_count() or 1)


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
    this one bookkeeping path.
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


def spawn_map(fn: Callable, *iterables, workers: int) -> list:
    """Order-preserving ``map(fn, *iterables)`` across the warm spawn pool.

    The shared dispatch seam for every process-backend call site (sweep
    spans and E12's churn cases): gates on worker and item count (either
    <= 1 runs serially in-process), draws workers from the process-wide
    warm pool (``repro.sim.pool`` — spawn cost is paid once per process,
    not once per call), and degrades to the serial map
    with a warning when the pool's workers die (``BrokenProcessPool``)
    instead of crashing mid-suite.  ``fn`` must be module-level
    (picklable under ``spawn``).
    """
    items = list(zip(*iterables))
    nworkers = min(workers, len(items))
    if nworkers <= 1:
        return [fn(*args) for args in items]

    from concurrent.futures.process import BrokenProcessPool

    from .pool import discard_pool, get_pool

    try:
        # map over the materialized items — the caller's iterables may
        # be one-shot generators already consumed into `items` above
        return list(get_pool(nworkers).map(fn, *zip(*items)))
    except BrokenProcessPool as exc:
        discard_pool()
        emit_default("pool.broken", workers=nworkers)
        warnings.warn(
            f"process pool broke ({exc}); falling back to the serial path",
            RuntimeWarning,
            stacklevel=2,
        )
        return [fn(*args) for args in items]
