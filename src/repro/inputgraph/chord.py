"""Chord input graph [Stoica et al., SIGCOMM 2001] (paper ref. [48]).

Chord is the canonical ``O(log n)``-degree, ``O(log n)``-diameter DHT and the
paper's running example for properties P1-P4 (footnote 11 describes exactly
this linking rule):

* neighbors of ``w``: its ring successor and predecessor, plus the successors
  of the points ``w + 2^{-j}`` for ``j = 1..m`` ("fingers", exponentially
  decreasing distances; ``m = ceil(log2 n) + 1`` so the shortest finger
  reaches ~1/n away);
* routing: greedy clockwise — forward to the *closest preceding finger* of
  the key until the key falls in ``(current, successor]``.

Routing is batch-vectorized: every query still in flight advances one hop
per iteration, and finished queries drop out of the batch.  A hop reads
one finger per query, not the whole row.  Along a finger row the clockwise
distance never increases, so the closest preceding finger is the first
column whose distance falls strictly inside ``(current, key)``; the binary
exponent of the key distance says which columns are too long to qualify,
and the walk starts right after them (:meth:`ChordGraph._start_column`).

Construction builds no finger table.  A walk computes the cells it reads
from the ring, each one exactly the value the table would hold, until
those reads have cost about as much as the table would
(:meth:`ChordGraph._fingers_at`); then, or on the first whole-table read
(:meth:`ChordGraph.finger_table`, the neighbor sets), the table is built
once.  So the static pass at n = 2^20, whose 100k probes read ~5% of the
24 M cells, never builds it, while an epoch's new graph gets it from the
neighbor sets its transition reads.

Congestion: with raw u.a.r. arcs (no virtual-node smoothing) the most
congested ID couples the maximum ownership arc (``Theta(log n / n)``) with
the ``Theta(log n)`` hops that can land on it, so we declare the honest
exponent ``c = 2`` in P4.  The paper only needs *some* constant ``c``;
Lemma 9 absorbs it via ``k >= 2c + gamma``.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Callable

import numpy as np

from ..idspace.ring import Ring, map_blocks, row_blocks
from .base import InputGraph

__all__ = ["ChordGraph"]

# The charge of one computed finger read beyond its own cells, in table
# cells: a read's fixed NumPy cost is about what building ~1,000 cells of
# the table costs.  Without it a graph routed one query at a time (a serve
# snapshot) computes its reads for thousands of calls before the table pays.
_CALL_CELLS = 1024

# A finger table is built once under this lock (ChordGraph.finger_table).
# It is not the bucket LUT's lock: the first block of a table build runs on
# the building thread and may build the ring's LUT.
_table_lock = threading.Lock()


def _new_lock() -> None:
    """A forked child has none of the parent's threads: start over."""
    global _table_lock
    _table_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_lock)

# A finger aimed 2^-(j+1) ahead has a computed clockwise distance of at least
# 2^-(j+1) - 2^-52 (two roundings of at most 2^-53 each), so a key distance
# d with d + _SLACK < 2^-(j+1) rules column j out.
_SLACK = 2.0**-50


def _cw(delta: np.ndarray) -> np.ndarray:
    """Clockwise distance for ``delta`` in (-1, 1), a zero read as a full lap.

    On that range ``np.mod(delta, 1.0)`` returns ``delta`` when it is
    positive and ``fl(delta + 1)`` when it is negative; adding
    ``delta <= 0`` (as 1.0 or 0.0) gives the same float, bit for bit, at a
    fraction of the cost of ``np.mod``'s division.  A zero difference, which
    only a self-finger produces, reads as 1.0: a full lap, never strictly
    inside ``(current, key)``.
    """
    return delta + (delta <= 0)


class ChordGraph(InputGraph):
    """Chord overlay over a ring of IDs."""

    name = "chord"
    congestion_exponent = 2.0

    def __init__(self, ring: Ring, extra_fingers: int = 1):
        """Set up routing over ``ring``; the finger table waits.

        Construction computes no finger: routing (P1) reads a few cells
        of the ``(n, m+2)`` table per hop, and a static pass at
        n = 2^20 reads ~5% of its cells.  :meth:`_fingers_at` computes
        the cells a walk reads until the table pays for itself, and
        :meth:`finger_table` builds it for any whole-table reader.
        """
        self._extra = int(extra_fingers)
        n = ring.n
        m = max(1, math.ceil(math.log2(max(2, n)))) + self._extra
        self._m = m
        # Columns: m fingers, successor, predecessor.  Routing reads the
        # table flat: node c's column j is c * width + j.
        self._width = m + 2
        # finger column j aims 2^-(j+1) ahead; the successor column's 0.0
        # keeps a computed read of it in range (its cell is set apart)
        self._offsets = np.append(2.0 ** -(np.arange(1, m + 1)), 0.0)
        self._flat: np.ndarray | None = None  # the table, once built
        # what computed reads have been charged, against the table's cell
        # count (unlocked: a lost update only delays the build)
        self._charged, self._cells = 0, n * self._width
        # _start[b] is the first finger column a key distance d leaves in
        # play, b being the biased binary exponent of d + _SLACK, which is
        # then below 2^(b - 1022): every column j < 1022 - b aims at least
        # that far ahead.  One entry per 11-bit exponent.
        self._start = np.clip(1022 - np.arange(2048), 0, m)
        ids = ring.ids
        # clockwise gap to the successor: np.mod(d, 1.0) bit for bit, d
        # lying in (-1, 1) (a one-ID ring's 0 stays 0)
        d = np.roll(ids, -1) - ids
        d += d < 0
        self._d_succ = d
        super().__init__(ring)

    def _build_table(self) -> np.ndarray:
        """The finger table, flat.

        It is computed in row blocks (:func:`~repro.idspace.ring.row_blocks`)
        on up to four threads (:func:`~repro.idspace.ring.map_blocks`), and
        this thread writes each block's rows in order; a table of at most
        ~2^18 finger points is one block, computed here.
        """
        ring, n, m = self.ring, self.n, self._m
        ids, offsets = ring.ids, self._offsets[:m]
        # Stored at the ring's index dtype: the table is the largest
        # persistent array of the topology, so int32 halves it at
        # million-node scale.
        fingers = np.empty((n, m + 2), dtype=ring.index_dtype)

        # finger_table[i, j] = suc(ids[i] + 2^{-(j+1)}), j = 0..m-1
        def rows_of(rows: slice) -> np.ndarray:
            points = ids[rows, None] + offsets
            table = np.empty((points.shape[0], m + 2), dtype=ring.index_dtype)
            table[:, :m] = self._finger_cells(points.ravel()).reshape(
                points.shape)
            i = np.arange(rows.start, rows.stop)
            table[:, m] = (i + 1) % n
            table[:, m + 1] = (i - 1) % n
            return table

        blocks = list(row_blocks(n, m))
        for rows, table in zip(blocks, map_blocks(rows_of, blocks)):
            fingers[rows] = table
        return fingers.ravel()

    def _finger_cells(self, points: np.ndarray) -> np.ndarray:
        """The successors of finger points ``ids[i] + 2^-(j+1)``, wrapped
        in place: a point lies in [0, 1.5], so subtracting (x >= 1) is
        np.mod(x, 1.0) bit for bit, x - 1 being exact there.  The table's
        build and a walk's computed reads both go through here."""
        points -= points >= 1
        return self.ring.successor_index_bulk(points)

    # -- topology -------------------------------------------------------------

    def _neighbor_sets(self) -> tuple[np.ndarray, np.ndarray]:
        # each node's distinct fingers, successor and predecessor, itself
        # excluded, in one vectorized pass (no per-node Python loop, the
        # wall-time blocker at n = 10^6); the walks read the table, so
        # the rows are sorted in a copy
        return self._sorted_rows(self.finger_table().copy())

    @property
    def finger_count(self) -> int:
        return self._m

    def finger_table(self) -> np.ndarray:
        """The ``(n, m+2)`` matrix of finger/successor/predecessor indices.

        The first call builds it, once, under a lock, and publishes it only
        when complete: the walks of several threads may reach a fresh
        graph together.
        """
        if self._flat is None:
            with _table_lock:
                if self._flat is None:
                    self._flat = self._build_table()
        return self._flat.reshape(self.n, self._width)

    # -- routing ---------------------------------------------------------------

    def _start_column(self, d_key: np.ndarray) -> np.ndarray:
        """First finger column a key distance in (0, 1] leaves in play."""
        return self._start[(d_key + _SLACK).view(np.int64) >> 52]

    def _fingers_at(self, ptr: np.ndarray, here: np.ndarray) -> np.ndarray:
        """The int64 finger cells at flat positions ``ptr``.

        ``ptr`` is ``row * width + column`` for a column of at most ``m``
        (the walk never reads the predecessor), and ``here`` the rows' IDs.
        Once the table exists the cells are gathered from it.  Until then
        they are computed as the build computes them, bit for bit, and
        each such read is charged its cells plus ``_CALL_CELLS``: the
        fixed cost of a computed read, in cells.  The read after the
        charges reach the table's size builds it (ski rental), so a
        graph routed heavily pays for its table once, while a pass that
        reads a few percent of its cells never builds it.
        """
        flat = self._flat
        if flat is None:
            if self._charged < self._cells:
                self._charged += ptr.size + _CALL_CELLS
                return self._computed_fingers(ptr, here)
            flat = self.finger_table().ravel()
        # int64 indices: NumPy gathers with int32 ones convert them first
        return flat[ptr].astype(np.int64)

    def _computed_fingers(self, ptr: np.ndarray, here: np.ndarray) -> np.ndarray:
        """The cells at ``ptr``, computed: finger column ``j`` of row ``i``
        is ``suc(ids[i] + 2^-(j+1))``, and the successor column is
        ``(i + 1) % n``."""
        width = self._width
        cur = ptr // width
        col = ptr - cur * width
        cells = self._finger_cells(here + self._offsets[col]).astype(np.int64)
        succ = np.flatnonzero(col == self._m)
        cells[succ] = (cur[succ] + 1) % self.n
        return cells

    def _next_hop(
        self, cur: np.ndarray, key: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One greedy hop for queries at ``cur`` looking up ``key``.

        Returns ``(nxt, arrive)``.  A key in ``(current, successor]`` has
        arrived: its hop goes to its responsible ID, which the caller
        fills in over ``nxt``.  Any other key goes to the closest preceding
        finger, the finger (or successor) whose clockwise distance is
        largest strictly inside ``(current, key)``.  Every query here is
        still in flight, so ``key`` is not ``cur``'s own ID and its
        distance is positive.

        The finger distances along a row never increase, except that
        self-fingers (a full lap, only on tiny rings) come first.  So the
        closest preceding finger is the first column from the start whose
        distance is below the key's, and for a key beyond the successor
        the successor column always qualifies.  A self-finger aims past
        every other ID, so a key still in flight lies short of its aim: the
        walk can meet one only at its start column, never after a step.
        An arrived query gets key distance above 2, which no finger
        reaches, so it never steps.
        """
        ids = self.ring.ids
        here = ids[cur]
        d_key = _cw(key - here)
        ptr = cur * self._width + self._start_column(d_key)
        arrive = d_key <= self._d_succ[cur]
        d_key += arrive * 2.0
        nxt = self._fingers_at(ptr, here)
        step = np.flatnonzero(_cw(ids[nxt] - here) >= d_key)
        while step.size:
            at = ptr[step] + 1
            ptr[step] = at
            h = here[step]
            f = self._fingers_at(at, h)
            nxt[step] = f
            step = step.compress(_cw(ids[f] - h) >= d_key[step])
        return nxt, arrive

    def _walk(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        visit: Callable[[np.ndarray, np.ndarray, int], None],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Route every query (:meth:`InputGraph._walk`): every query in
        flight takes every pass, so ``at`` is the hop number.

        Queries leave the batch on reaching their responsible ID, and the
        queries that leave are exactly the arrived ones.  A computed
        clockwise distance never decreases as the true one grows, so a
        finger whose distance is below the key's lies short of the key
        and is never its responsible ID.  Keys lie in ``[0, 1)`` like the
        IDs, so every difference :func:`_cw` sees is in (-1, 1).
        """
        resp = self.ring.successor_index_bulk(targets)
        live = np.flatnonzero(sources != resp)
        cur, key = sources[live], targets[live]
        for hop in range(1, 4 * self._m + 9):
            if not live.size:
                break
            nxt, arrive = self._next_hop(cur, key)
            done = np.flatnonzero(arrive)
            nxt[done] = resp[live[done]]
            visit(live, nxt, hop)
            if done.size:
                moving = np.flatnonzero(~arrive)
                live, cur, key = live[moving], nxt[moving], key[moving]
            else:
                cur = nxt
        return resp, live

    # Defined on the class itself, not inherited: benchmarks/e2e traces
    # ``ChordGraph.route_many``, and its tracer wraps only an attribute the
    # class defines.
    route_many = InputGraph.route_many
