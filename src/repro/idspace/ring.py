"""Unit-ring ID space ``[0, 1)`` (paper §I-C).

Every participant in the system is represented by an *ID*: a point in the
half-open interval ``[0, 1)`` viewed as a ring, where moving clockwise
corresponds to increasing values (wrapping at 1).  The *successor* of a point
``x`` is the first ID encountered moving clockwise from ``x``; the successor
is the ID *responsible* for the key ``x`` (P2 of the paper's input-graph
contract).

This module provides:

* scalar and vectorized clockwise-distance / interval predicates,
* :class:`Ring` — an immutable sorted collection of IDs supporting O(log n)
  successor queries (vectorized over query batches via ``np.searchsorted``),
* :func:`row_blocks` and :func:`map_blocks` — the row blocks in which the
  million-node builds stream their points through the bulk successor
  lookup, and the ordered map that runs those blocks on up to four threads
  (NumPy releases the GIL inside a block's lookup, sort and dedup),
* the paper's ``ln ln n`` estimation trick (§III-A "How is ln ln n
  estimated?"), which works even when an adversary omits some of its IDs.

IDs are float64.  The paper requires ``O(log n)`` bits of precision; float64's
52 mantissa bits are ample for any ``n`` this simulator can hold in memory.
Exact duplicates (probability ~0 for random draws, but possible with
adversarial inputs) are removed on construction.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import deque
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "cw_dist",
    "cw_dist_many",
    "in_cw_interval",
    "Ring",
    "estimate_ln_n",
    "estimate_ln_ln_n",
    "index_dtype_for",
    "map_blocks",
    "row_blocks",
]


def index_dtype_for(n: int, policy: str | np.dtype | None = "auto") -> np.dtype:
    """Resolve the storage dtype for ring indices of an ``n``-ID system.

    ``"auto"`` (the default) selects int32 whenever every ring index fits —
    ``n < 2**31`` — halving the persistent CSR/finger/LUT footprint at any
    scale this simulator reaches in practice.  ``"int64"`` forces the wide
    layout (the byte-identity oracle for the narrowing property tests);
    ``"int32"`` demands the narrow layout and *refuses* — ``ValueError`` —
    when indices would not fit, rather than silently wrapping.

    Only storage narrows: index *values* are identical under every policy,
    and RNG draws / float accumulations never pass through this dtype.
    """
    if policy is None:
        policy = "auto"
    if not isinstance(policy, str):
        policy = np.dtype(policy).name
    fits = n <= np.iinfo(np.int32).max
    if policy == "int64":
        return np.dtype(np.int64)
    if policy == "int32":
        if not fits:
            raise ValueError(
                f"index_dtype 'int32' cannot address n={n} ids (>= 2**31); "
                "use 'auto' or 'int64'"
            )
        return np.dtype(np.int32)
    if policy == "auto":
        return np.dtype(np.int32) if fits else np.dtype(np.int64)
    raise ValueError(
        f"unknown index_dtype policy {policy!r}; choose 'auto', 'int32' or 'int64'"
    )


_ALMOST_ONE = float(np.nextafter(1.0, 0.0))

# Points per row block of a streamed bulk build: a block's points, buckets
# and indices stay a few MB, where one (n, m) pass at n = 2^20 would hold
# ~22M of each.  Run on threads, the blocks in flight share this budget.
_BLOCK_POINTS = 1 << 18

# Threads of the block map: at most 4, fewer when the process may use fewer
# CPUs.  With one, every block runs on the calling thread.
_THREADS = min(4, len(os.sched_getaffinity(0))
               if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)

_pool = None  # the map's ThreadPoolExecutor, made by its first multi-block run
_pool_lock = threading.Lock()
_tables_lock = threading.Lock()


def _forget_pool() -> None:
    """A forked child has none of the parent's threads: start over."""
    global _pool, _pool_lock, _tables_lock
    _pool, _pool_lock, _tables_lock = None, threading.Lock(), threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _in_flight() -> int:
    """Blocks :func:`map_blocks` holds at once: two per thread, so a thread
    finds the next block queued while the caller takes a result."""
    return 2 * _THREADS


def row_blocks(rows: int, width: int) -> Iterator[slice]:
    """Consecutive row slices covering a ``(rows, width)`` point array.

    A build that draws or computes its points block by block and runs the
    blocks through :func:`map_blocks` never holds more than about
    ``_BLOCK_POINTS`` points of them.  Rows that fit one block are one
    block.  Beyond that, each slice holds about ``_BLOCK_POINTS`` points
    (at least one row), divided by the map's in-flight bound when it runs
    on threads.
    """
    step = max(1, _BLOCK_POINTS // max(1, width))
    if rows > step and _THREADS > 1:
        step = max(1, step // _in_flight())
    for lo in range(0, rows, step):
        yield slice(lo, min(lo + step, rows))


def _block_pool():
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_THREADS, thread_name_prefix="row-block")
        return _pool


def map_blocks(fn: Callable, items: Iterable) -> Iterator:
    """``map(fn, items)`` with the calls spread over up to four threads.

    Results come back in input order.  ``items`` is pulled on the calling
    thread, and never more than the in-flight bound ahead of the results
    already returned, so a generator that draws its blocks from an RNG
    draws them in order and holds few at once.  The first call runs on
    the calling thread, so what it builds on first use (a ring's bucket
    LUT) is built there, once, before any other thread starts.  The pool
    takes the remaining calls; there is none for a single item, or with
    one usable CPU.

    ``fn`` must only read shared state.  When a call raises, or the caller
    stops early, the queued calls are cancelled and the running ones
    finish before the exception (or the close) leaves the map.
    """
    items = iter(items)
    for item in itertools.islice(items, 1):
        yield fn(item)
    head = list(itertools.islice(items, 1))
    if not head or _THREADS == 1:
        yield from map(fn, itertools.chain(head, items))
        return
    pool, bound = _block_pool(), _in_flight()
    pending = deque()
    try:
        for item in itertools.chain(head, items):
            pending.append(pool.submit(fn, item))
            if len(pending) >= bound:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            if not future.cancel():
                future.exception()  # waits for a running call to finish


def cw_dist(a: float, b: float) -> float:
    """Clockwise distance from point ``a`` to point ``b`` on the unit ring.

    Always in ``[0, 1)``: ``cw_dist(a, a) == 0`` and
    ``cw_dist(a, b) + cw_dist(b, a) == 1`` for ``a != b``.

    Float boundary: when ``b - a`` is a negative denormal, ``% 1.0`` rounds
    to exactly 1.0; the true distance is "just under a full lap", so it is
    clamped to the largest float below 1 to preserve the range contract.
    """
    d = (b - a) % 1.0
    return _ALMOST_ONE if d >= 1.0 else d


def cw_dist_many(a, b) -> np.ndarray:
    """Vectorized :func:`cw_dist`; broadcasts ``a`` against ``b``."""
    d = np.mod(
        np.asarray(b, dtype=np.float64) - np.asarray(a, dtype=np.float64), 1.0
    )
    return np.where(d >= 1.0, _ALMOST_ONE, d)


def in_cw_interval(x, start, end) -> np.ndarray | bool:
    """Whether ``x`` lies in the clockwise half-open interval ``(start, end]``.

    The interval is traversed clockwise from ``start``; it may wrap through 1.
    ``start == end`` denotes the empty interval (Chord convention for a ring
    with at least two distinct points).  Works element-wise on arrays.
    """
    d_end = cw_dist_many(start, end)
    d_x = cw_dist_many(start, x)
    return (d_x > 0) & (d_x <= d_end)


class Ring:
    """An immutable, sorted set of IDs on the unit ring.

    Parameters
    ----------
    ids:
        Iterable of ID values in ``[0, 1)``.  Duplicates are dropped;
        values outside the range raise ``ValueError``.
    index_dtype:
        Policy for the dtype of returned ring indices — ``"auto"``
        (default: int32 when ``n < 2**31``), ``"int32"`` (refuses larger
        rings), or ``"int64"`` (the wide oracle).  See
        :func:`index_dtype_for`.  Index values never depend on the policy.

    Notes
    -----
    Internally the IDs are kept in a sorted float64 array.  A *ring index*
    is a position in that sorted order; the public API deals in ring indices
    so callers can attach per-ID metadata in parallel arrays (bad flags,
    group membership, ...) — the CSR-style layout the HPC guides recommend
    instead of per-object Python dictionaries.
    """

    __slots__ = ("ids", "n", "index_dtype", "_succ_lut", "_ids_ext")

    def __init__(
        self,
        ids: Iterable[float] | np.ndarray,
        index_dtype: str | np.dtype | None = "auto",
    ):
        arr = np.unique(np.asarray(list(ids) if not isinstance(ids, np.ndarray) else ids,
                                   dtype=np.float64))
        if arr.size == 0:
            raise ValueError("Ring requires at least one ID")
        # written so that NaN (sorted last by np.unique) fails it too
        if not (arr[0] >= 0.0 and arr[-1] < 1.0):
            raise ValueError("IDs must lie in [0, 1)")
        # the IDs share one buffer with an inf sentinel, so an index of n
        # is a safe gather target in the bulk lookup's advance loop
        self._ids_ext = np.append(arr, np.inf)
        self._ids_ext.setflags(write=False)
        self.ids: np.ndarray = self._ids_ext[:-1]
        self.n: int = int(arr.size)
        self.index_dtype: np.dtype = index_dtype_for(self.n, index_dtype)
        self._succ_lut: np.ndarray | None = None

    # -- successor / predecessor ------------------------------------------------

    def successor_index(self, point: float) -> int:
        """Ring index of ``suc(point)``: first ID clockwise from ``point``.

        An ID is its own successor (``suc(w) == w`` when ``w`` is an ID),
        matching the paper's "responsible ID" convention: the successor of a
        key is the ID responsible for it.
        """
        i = int(np.searchsorted(self.ids, point, side="left"))
        return 0 if i == self.n else i

    def successor_index_many(self, points) -> np.ndarray:
        """Vectorized :meth:`successor_index` over an array of points.

        Returned indices carry :attr:`index_dtype` (values are unaffected).
        """
        idx = np.searchsorted(self.ids, np.asarray(points, dtype=np.float64), side="left")
        idx[idx == self.n] = 0
        return idx.astype(self.index_dtype, copy=False)

    # bulk-successor tuning: below this many queries the binary search wins
    # (LUT construction + the extra gathers don't amortize)
    _BULK_THRESHOLD = 4096
    # advance-loop bound: uniform-ish rings finish in <= 3 steps; an
    # adversarially clustered ring falls back to the exact binary search
    _BULK_MAX_ADVANCE = 32

    def _bulk_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``(lut, ids_ext)`` for :meth:`successor_index_bulk`.

        ``lut[b]`` is the first ring index whose ID is >= ``b / K``, for
        ``K`` the largest power of two <= ``4n``.  With a power-of-two
        ``K``, ``id * K`` is exact, so the IDs below ``b / K`` are exactly
        those in buckets ``< b``: the LUT is the running count of IDs per
        bucket.  It is built on first use, once, under a lock: the blocks
        of a threaded build reach a fresh ring together.
        """
        if self._succ_lut is None:
            with _tables_lock:
                if self._succ_lut is None:
                    self._succ_lut = self._build_lut()
        return self._succ_lut, self._ids_ext

    def _build_lut(self) -> np.ndarray:
        K = 1 << ((4 * self.n).bit_length() - 1)
        counts = np.bincount((self.ids * K).astype(np.int64), minlength=K)
        # int32 under the narrow policy halves the LUT (its K + 1 slots
        # dominate the ring's resident footprint at large n); lut values
        # reach n, which fits whenever ring indices do
        lut = np.zeros(K + 1, dtype=self.index_dtype)
        np.cumsum(counts, out=lut[1:])
        lut.setflags(write=False)
        return lut

    def successor_index_bulk(self, points) -> np.ndarray:
        """Exact :meth:`successor_index_many`, tuned for large batches.

        Binary search over random query points is branch-miss bound; this
        path replaces it with a bucket lookup (``K`` power-of-two buckets
        over ``[0, 1)``, ``2n < K <= 4n``) followed by a short vectorized
        advance — for near-uniform ID sets almost every query lands 0-2
        slots from its bucket's first ID.  ``floor(p * K)`` is exact, so
        a point's bucket starts at or before the point and its first ID is
        never past the successor.  Queries still advancing after a bounded
        number of steps (an adversarially clustered ring) are resolved by
        the exact binary search, so for points in ``[0, 1]`` the result
        equals :meth:`successor_index_many` element-for-element on *any*
        ring.  This is the hot path of the group and finger builds (~6x
        over the binary search at Monte-Carlo batch sizes).
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.size < self._BULK_THRESHOLD:
            return self.successor_index_many(pts)
        lut, ids_ext = self._bulk_tables()
        K = lut.size - 1
        idx = lut[(pts * K).astype(np.int64)]  # inherits index_dtype
        active = np.flatnonzero(ids_ext[idx] < pts)
        if active.size:
            for _ in range(self._BULK_MAX_ADVANCE):
                idx[active] += 1
                still = ids_ext[idx[active]] < pts[active]
                active = active[still]
                if not active.size:
                    break
            else:
                idx[active] = np.searchsorted(self.ids, pts[active], side="left")
        idx[idx == self.n] = 0
        return idx

    def successor(self, point: float) -> float:
        """ID value of ``suc(point)``."""
        return float(self.ids[self.successor_index(point)])

    def predecessor_index(self, point: float) -> int:
        """Ring index of the first ID strictly counter-clockwise of ``point``."""
        i = int(np.searchsorted(self.ids, point, side="left")) - 1
        return self.n - 1 if i < 0 else i

    def predecessor_index_of(self, idx: int) -> int:
        """Ring index of the predecessor *ID* of the ID at ring index ``idx``."""
        return (idx - 1) % self.n

    def successor_index_of(self, idx: int) -> int:
        """Ring index of the successor *ID* of the ID at ring index ``idx``."""
        return (idx + 1) % self.n

    # -- ownership arcs -----------------------------------------------------------

    def arc_lengths(self) -> np.ndarray:
        """Length of the key-space arc each ID is responsible for.

        ID ``w`` at ring index ``i`` is responsible for the clockwise arc
        ``(pred(w), w]``, whose length is the clockwise distance from its
        predecessor.  The lengths sum to 1 — this is the load-balance
        quantity of property P2.
        """
        rolled = np.roll(self.ids, 1)
        return np.mod(self.ids - rolled, 1.0)

    def responsible_fraction(self, mask: np.ndarray) -> float:
        """Total key-space fraction owned by the IDs selected by ``mask``."""
        return float(self.arc_lengths()[np.asarray(mask, dtype=bool)].sum())

    # -- misc -----------------------------------------------------------------

    def index_of(self, value: float) -> int:
        """Ring index of an exact ID value (raises ``KeyError`` if absent)."""
        i = int(np.searchsorted(self.ids, value, side="left"))
        if i == self.n or self.ids[i] != value:
            raise KeyError(f"ID {value!r} not in ring")
        return i

    def contains(self, value: float) -> bool:
        i = int(np.searchsorted(self.ids, value, side="left"))
        return i < self.n and self.ids[i] == value

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Ring(n={self.n})"


def estimate_ln_n(ids: np.ndarray | Ring, sample: int = 32, rng=None) -> float:
    """Estimate ``ln n`` to within a constant factor from ID spacing.

    Paper §III-A / footnote 15: for u.a.r. IDs the distance between adjacent
    IDs satisfies ``alpha''/n^2 <= d <= alpha' ln(n)/n`` w.h.p., so
    ``ln(1/d)`` is ``Theta(ln n)``.  We take the median of ``ln(1/d)`` over a
    few sampled adjacent pairs, which is robust to an adversary omitting IDs
    (omission only widens gaps, shifting the estimate by O(1)).
    """
    ring = ids if isinstance(ids, Ring) else Ring(ids)
    gaps = ring.arc_lengths()
    gaps = gaps[gaps > 0]
    if rng is not None and sample < gaps.size:
        gaps = rng.choice(gaps, size=sample, replace=False)
    est = np.median(np.log(1.0 / gaps))
    # ln(1/gap) concentrates around ln n + O(1); the median removes outliers.
    return float(est)


def estimate_ln_ln_n(ids: np.ndarray | Ring, sample: int = 32, rng=None) -> float:
    """Estimate ``ln ln n`` (paper §III-A): ``ln ln(1/d(u,v)) = ln ln n + O(1)``."""
    return float(np.log(max(estimate_ln_n(ids, sample=sample, rng=rng), np.e)))
