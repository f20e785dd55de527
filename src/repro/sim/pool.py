"""Process-wide warm worker pool for the ``process`` backend.

``spawn`` is the start method that works everywhere, but it pays an
interpreter boot plus a full module re-import per worker — tens to
hundreds of milliseconds each.  The old per-call throwaway executor paid
that price on *every* ``spawn_map``, which is exactly why
``cells-process`` lost to ``cells-serial`` once the vectorized kernels
shrank per-cell work below the spawn cost.  This module keeps one
executor alive for the whole process: the first ``get_pool`` spawns it
(``pool.spawn`` telemetry), later calls reuse it (``pool.reuse``), and it
only respawns when a caller needs more workers than the warm pool has.

Determinism is untouched: the pool schedules work, it never feeds RNG
streams — per-task ``SeedSequence`` children are still spawned in the
parent — so results stay bit-identical at any worker count, warm or cold.

A pool whose workers died (``BrokenProcessPool``) must be discarded, not
reused: callers do so via :func:`discard_pool` in their fallback path.
The warm executor is shut down at interpreter exit (workers are daemonic
threads' peers, but an explicit shutdown keeps exit clean and quiet).
"""

from __future__ import annotations

import atexit
import threading

from ..telemetry import emit_default

__all__ = [
    "discard_pool",
    "get_pool",
    "pool_stats",
    "shutdown_pool",
]

_MP_METHOD = "spawn"  # the one start method every caller uses

_lock = threading.Lock()
_pool = None          # the warm ProcessPoolExecutor, or None
_pool_workers = 0     # its max_workers

# observable spawn/reuse counters (tests; mirrors the telemetry events)
_stats = {"spawned": 0, "reused": 0, "discarded": 0}


def pool_stats() -> dict:
    """Copy of the pool's lifetime spawn/reuse/discard counters."""
    with _lock:
        return dict(_stats)


def get_pool(workers: int):
    """The warm executor, spawning or resizing it only when needed.

    A warm pool with at least ``workers`` workers is reused as-is (idle
    extra workers cost nothing); a smaller pool is shut down and replaced.
    """
    global _pool, _pool_workers
    workers = max(1, int(workers))
    with _lock:
        if _pool is not None and _pool_workers >= workers:
            _stats["reused"] += 1
            emit_default(
                "pool.reuse", workers=_pool_workers, requested=workers
            )
            return _pool

        old = _pool
        _pool = None
        if old is not None:
            _stats["discarded"] += 1
            old.shutdown(wait=True, cancel_futures=True)

        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor

        _pool = ProcessPoolExecutor(
            max_workers=workers, mp_context=mp.get_context(_MP_METHOD)
        )
        _pool_workers = workers
        _stats["spawned"] += 1
        emit_default("pool.spawn", workers=workers, mp_method=_MP_METHOD)
        return _pool


def discard_pool() -> None:
    """Throw away the warm pool (after ``BrokenProcessPool``).

    The broken executor's shutdown is non-blocking: its surviving
    workers are already exiting and the dead ones cannot be joined.
    """
    global _pool
    with _lock:
        old = _pool
        _pool = None
        if old is not None:
            _stats["discarded"] += 1
    if old is not None:
        old.shutdown(wait=False, cancel_futures=True)


def shutdown_pool() -> None:
    """Orderly shutdown of the warm pool (idempotent; atexit hook)."""
    global _pool
    with _lock:
        old = _pool
        _pool = None
        if old is not None:
            _stats["discarded"] += 1
    if old is not None:
        old.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_pool)
