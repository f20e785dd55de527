"""Shared-memory result transport for the process backend.

Large NumPy payloads crossing the process boundary (chunk trial arrays,
cell outputs, CSR group builds) used to travel as full pickles — every
byte copied through the executor's result pipe.  This module moves them
through ``multiprocessing.shared_memory`` instead: the producer writes
the array into a named segment and pickles only a small :class:`ShmRef`
header (name, shape, dtype); the consumer attaches, copies out, and
unlinks.  The pipe carries headers, the kernel page cache carries data.

Three layers:

:class:`ShmArena`
    Explicit segment lifecycle — ``share`` (create + write), ``load``
    (attach + copy + close [+ unlink]), ``unlink_created`` — with every
    created name tracked so tests can leak-check an arena like a file
    handle.

:func:`shm_dumps` / :func:`shm_loads`
    A drop-in ``pickle.dumps``/``loads`` pair: a custom
    :meth:`pickle.Pickler.reducer_override` transparently diverts every
    C-layout ndarray of at least :func:`min_bytes` (default 64 KiB, env
    ``REPRO_SHM_MIN_BYTES``) into a segment, leaving small arrays and
    everything non-array inline.  Unpickling restores plain ndarrays and
    unlinks the segments, so a round trip leaves nothing behind.

Run-scoped leak recovery
    Every segment name carries the run prefix from ``$REPRO_SHM_RUN``
    (created lazily by :func:`ensure_run_prefix`; spawn workers inherit
    it through the environment).  If a worker dies mid-write the segment
    survives with no consumer, so :func:`sweep_run_segments` scans
    ``/dev/shm`` for the prefix and unlinks the strays — called from the
    ``BrokenProcessPool`` fallback and, for the prefix-owning process,
    at interpreter exit.

The transport never changes values: consumers receive byte-equal arrays,
so bit-identical tables remain the invariant they always were.
"""

from __future__ import annotations

import atexit
import io
import os
import pickle
import secrets
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "DEFAULT_MIN_BYTES",
    "ShmArena",
    "ShmInputBatch",
    "ShmRef",
    "collect_load_stats",
    "default_arena",
    "ensure_run_prefix",
    "min_bytes",
    "run_segments",
    "shm_dumps",
    "shm_loads",
    "sweep_run_segments",
]

_RUN_ENV = "REPRO_SHM_RUN"
_MIN_ENV = "REPRO_SHM_MIN_BYTES"
_SHM_DIR = "/dev/shm"

# arrays below this many bytes pickle inline — a segment per tiny array
# would cost more in shm_open/mmap round trips than the copy it avoids
DEFAULT_MIN_BYTES = 64 * 1024


def min_bytes() -> int:
    """Inline/segment threshold in bytes (env ``REPRO_SHM_MIN_BYTES``)."""
    raw = os.environ.get(_MIN_ENV)
    if raw:
        try:
            return max(0, int(raw))
        except ValueError:
            pass
    return DEFAULT_MIN_BYTES


def ensure_run_prefix() -> str:
    """This run's segment-name prefix, minted once per process tree.

    Stored in the environment so ``spawn`` workers inherit it — parent
    and children stamp the same prefix on every segment they create,
    which is what makes :func:`sweep_run_segments` safe: it can only
    ever unlink this run's strays, never another process's segments.
    The minting process owns the prefix and sweeps it at exit.
    """
    prefix = os.environ.get(_RUN_ENV)
    if not prefix:
        prefix = f"rs{secrets.token_hex(4)}"
        os.environ[_RUN_ENV] = prefix
        atexit.register(sweep_run_segments, prefix)
    return prefix


@dataclass(frozen=True)
class ShmRef:
    """Picklable header describing one array parked in a shared segment."""

    name: str
    shape: tuple
    dtype: str

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return count * np.dtype(self.dtype).itemsize


class _LoadStats:
    """Byte/segment counters for one decode scope (telemetry feed)."""

    def __init__(self) -> None:
        self.shm_bytes = 0
        self.segments = 0


_load_stats = threading.local()


@contextmanager
def collect_load_stats():
    """Count segment loads (bytes, segments) performed inside the scope."""
    stats = _LoadStats()
    previous = getattr(_load_stats, "current", None)
    _load_stats.current = stats
    try:
        yield stats
    finally:
        _load_stats.current = previous


class ShmArena:
    """Create/attach/load/unlink shared segments under one run prefix.

    Tracks every name it creates so an arena can be leak-checked
    (``created_names``) and drained (``unlink_created``) like any other
    resource handle.  Consumers normally unlink segments as they load
    them (``load(..., unlink=True)``), leaving ``unlink_created`` as the
    producer-side backstop for segments that never found a consumer.
    """

    def __init__(self, prefix: str | None = None) -> None:
        self.prefix = prefix or ensure_run_prefix()
        self._seq = 0
        self._created: set[str] = set()

    # -- producer side ---------------------------------------------------------

    def share(self, arr: np.ndarray) -> ShmRef:
        """Copy ``arr`` into a fresh segment and return its header."""
        arr = np.ascontiguousarray(arr)
        name = f"{self.prefix}.{os.getpid():x}.{self._seq}"
        self._seq += 1
        seg = shared_memory.SharedMemory(
            name=name, create=True, size=max(1, arr.nbytes)
        )
        try:
            if arr.nbytes:
                np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)[...] = arr
        finally:
            seg.close()
        self._created.add(name)
        return ShmRef(name=name, shape=tuple(arr.shape), dtype=str(arr.dtype))

    def created_names(self) -> set[str]:
        """Names created by this arena and not yet unlinked through it."""
        return set(self._created)

    # -- consumer side ---------------------------------------------------------

    def load(self, ref: ShmRef, unlink: bool = True) -> np.ndarray:
        """Copy the referenced array out of its segment (and retire it)."""
        seg = shared_memory.SharedMemory(name=ref.name, create=False)
        try:
            arr = np.ndarray(
                ref.shape, dtype=np.dtype(ref.dtype), buffer=seg.buf
            ).copy()
        finally:
            seg.close()
        if unlink:
            seg.unlink()
            self._created.discard(ref.name)
        stats = getattr(_load_stats, "current", None)
        if stats is not None:
            stats.shm_bytes += arr.nbytes
            stats.segments += 1
        return arr

    # -- lifecycle -------------------------------------------------------------

    def unlink_created(self) -> list[str]:
        """Unlink every tracked segment still on disk; returns the names."""
        removed = []
        for name in sorted(self._created):
            if _unlink_segment(name):
                removed.append(name)
        self._created.clear()
        return removed

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink_created()


_default_arena: ShmArena | None = None


def default_arena() -> ShmArena:
    """The process's shared arena (one per process, made on first use)."""
    global _default_arena
    if _default_arena is None:
        _default_arena = ShmArena()
    return _default_arena


# -- transparent pickle transport ----------------------------------------------


def _load_shared(ref: ShmRef) -> np.ndarray:
    """Unpickle hook: restore a diverted array and retire its segment."""
    return default_arena().load(ref, unlink=True)


class _ShmPickler(pickle.Pickler):
    def __init__(self, file, arena: ShmArena, threshold: int) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._arena = arena
        self._threshold = threshold

    def reducer_override(self, obj):
        # exactly ndarray: subclasses may carry state a raw buffer loses
        if (
            type(obj) is np.ndarray
            and obj.dtype != np.dtype(object)
            and obj.nbytes >= self._threshold
        ):
            return (_load_shared, (self._arena.share(obj),))
        return NotImplemented


def shm_dumps(
    obj, threshold: int | None = None, arena: ShmArena | None = None
) -> bytes:
    """Pickle ``obj`` with large ndarrays diverted into shared segments.

    The returned bytes must be consumed by :func:`shm_loads` (in any
    process of the run) exactly once: loading retires the segments.
    """
    buf = io.BytesIO()
    _ShmPickler(
        buf,
        arena if arena is not None else default_arena(),
        min_bytes() if threshold is None else threshold,
    ).dump(obj)
    return buf.getvalue()


def shm_loads(data: bytes):
    """Inverse of :func:`shm_dumps`; unlinks the segments it consumes."""
    return pickle.loads(data)


# -- zero-copy input transport ---------------------------------------------------


def _load_shared_keep(ref: ShmRef) -> np.ndarray:
    """Unpickle hook for *input* arrays: attach + copy, but do NOT unlink.

    Result transport is consume-once (one producer, one consumer, the
    consumer retires the segment).  Inputs are the opposite shape: the same
    large array — a built graph's CSR arrays, a probe batch, a sweep
    span's shared context — appears in many payloads and is read by many
    workers, so the segment must outlive every individual load.  The
    producer retires the batch's segments after the whole map completes
    (:meth:`ShmInputBatch.unlink`).
    """
    return default_arena().load(ref, unlink=False)


class _ShmInputPickler(pickle.Pickler):
    def __init__(self, file, batch: "ShmInputBatch") -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._batch = batch

    def reducer_override(self, obj):
        # exactly ndarray: subclasses may carry state a raw buffer loses
        if (
            type(obj) is np.ndarray
            and obj.dtype != np.dtype(object)
            and obj.nbytes >= self._batch.threshold
        ):
            return (_load_shared_keep, (self._batch.share(obj),))
        return NotImplemented


class ShmInputBatch:
    """Producer-side packer for payloads that *share* large input arrays.

    :meth:`dumps` pickles a payload with every large ndarray diverted into
    a keep-on-load segment, memoized by object identity: an array
    referenced by all of a map's payloads occupies **one** segment no
    matter how many payloads (or workers) touch it — the zero-copy input
    path the process backend needs at n = 10^6, where re-pickling the
    built graph per task would double peak memory.

    The memo holds a reference to each shared array for the batch's
    lifetime, which both deduplicates and makes the ``id()`` key safe (a
    held object's id cannot be recycled).  The producer must call
    :meth:`unlink` (or use the batch as a context manager) once every
    consumer is done — for a pool map, after ``map`` returns; segments
    from producers that die first are recovered by the run-prefix sweep.
    """

    def __init__(self, threshold: int | None = None) -> None:
        self.threshold = min_bytes() if threshold is None else int(threshold)
        self._arena = ShmArena()
        self._memo: dict[int, tuple[np.ndarray, ShmRef]] = {}

    def share(self, arr: np.ndarray) -> ShmRef:
        """Segment for ``arr``, created on first sight and memoized after."""
        hit = self._memo.get(id(arr))
        if hit is not None:
            return hit[1]
        ref = self._arena.share(arr)
        self._memo[id(arr)] = (arr, ref)
        return ref

    def dumps(self, obj) -> bytes:
        """Pickle ``obj`` with large input arrays diverted (keep-on-load)."""
        buf = io.BytesIO()
        _ShmInputPickler(buf, self).dump(obj)
        return buf.getvalue()

    @property
    def segments(self) -> int:
        return len(self._memo)

    @property
    def shm_bytes(self) -> int:
        return sum(ref.nbytes for _, ref in self._memo.values())

    def created_names(self) -> set[str]:
        return self._arena.created_names()

    def unlink(self) -> list[str]:
        """Retire every segment this batch created; returns the names."""
        self._memo.clear()
        return self._arena.unlink_created()

    def __enter__(self) -> "ShmInputBatch":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink()


# -- run-scoped leak recovery ----------------------------------------------------


def _unlink_segment(name: str) -> bool:
    try:
        seg = shared_memory.SharedMemory(name=name, create=False)
    except FileNotFoundError:
        return False
    seg.close()
    seg.unlink()
    return True


def run_segments(prefix: str | None = None) -> list[str]:
    """Segments of this run still present in ``/dev/shm`` (sorted names).

    Empty when the platform exposes no ``/dev/shm`` — on such hosts leak
    recovery degrades to the resource tracker's exit-time cleanup.
    """
    prefix = prefix or os.environ.get(_RUN_ENV)
    if not prefix or not os.path.isdir(_SHM_DIR):
        return []
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:
        return []
    return sorted(n for n in names if n.startswith(prefix))


def sweep_run_segments(prefix: str | None = None) -> list[str]:
    """Unlink every surviving segment of this run; returns the names.

    The recovery path for producers that died before a consumer attached
    (a worker killed mid-write): the prefix scopes the sweep to segments
    this run minted, so concurrent runs never step on each other.
    """
    removed = []
    for name in run_segments(prefix):
        if _unlink_segment(name):
            removed.append(name)
    return removed
