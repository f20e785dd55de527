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

Congestion: with raw u.a.r. arcs (no virtual-node smoothing) the most
congested ID couples the maximum ownership arc (``Theta(log n / n)``) with
the ``Theta(log n)`` hops that can land on it, so we declare the honest
exponent ``c = 2`` in P4.  The paper only needs *some* constant ``c``;
Lemma 9 absorbs it via ``k >= 2c + gamma``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..idspace.ring import Ring, map_blocks, row_blocks
from .base import PADDING, InputGraph, RouteBatch

__all__ = ["ChordGraph"]

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
        """Build the finger table over ``ring``.

        The table is computed in row blocks
        (:func:`~repro.idspace.ring.row_blocks`) on up to four threads
        (:func:`~repro.idspace.ring.map_blocks`), and this thread writes
        each block's rows in order; a table of at most ~2^18 finger points
        is one block, computed here.
        """
        self._extra = int(extra_fingers)
        n = ring.n
        m = max(1, math.ceil(math.log2(max(2, n)))) + self._extra
        ids = ring.ids
        # Columns: m fingers, successor, predecessor.  Stored at the ring's
        # index dtype: the (n, m+2) finger matrix is the largest persistent
        # array of the topology, so int32 halves it at million-node scale.
        self._fingers = np.empty((n, m + 2), dtype=ring.index_dtype)
        # finger_table[i, j] = suc(ids[i] + 2^{-(j+1)}), j = 0..m-1.  A point
        # lies in [0, 1.5], so subtracting (x >= 1) is np.mod(x, 1.0) bit
        # for bit: x - 1 is exact there.
        offsets = 2.0 ** -(np.arange(1, m + 1))

        def rows_of(rows: slice) -> np.ndarray:
            points = ids[rows, None] + offsets
            points -= points >= 1
            table = np.empty((points.shape[0], m + 2), dtype=ring.index_dtype)
            table[:, :m] = ring.successor_index_bulk(points.ravel()).reshape(
                points.shape)
            i = np.arange(rows.start, rows.stop)
            table[:, m] = (i + 1) % n
            table[:, m + 1] = (i - 1) % n
            return table

        blocks = list(row_blocks(n, m))
        for rows, table in zip(blocks, map_blocks(rows_of, blocks)):
            self._fingers[rows] = table
        self._m = m
        # Routing reads the matrix flat: node c's column j is c * width + j.
        self._flat = self._fingers.ravel()
        self._width = m + 2
        # _start[b] is the first finger column a key distance d leaves in
        # play, b being the biased binary exponent of d + _SLACK, which is
        # then below 2^(b - 1022): every column j < 1022 - b aims at least
        # that far ahead.  One entry per 11-bit exponent.
        self._start = np.clip(1022 - np.arange(2048), 0, m)
        self._d_succ = np.mod(np.roll(ids, -1) - ids, 1.0)
        super().__init__(ring)

    # -- topology -------------------------------------------------------------

    def _neighbor_sets(self) -> tuple[np.ndarray, np.ndarray]:
        # One-pass vectorized build: row-sort the finger matrix, mask
        # duplicate-adjacent and self entries, and gather the survivors.
        # Per row that is exactly ``np.unique(row[row != i])`` — a sorted,
        # unique, self-free neighbor list — without n Python iterations
        # (the wall-time blocker at n = 10^6).
        n = self.n
        f = np.sort(self._fingers, axis=1)
        keep = np.empty(f.shape, dtype=bool)
        keep[:, 0] = True
        np.not_equal(f[:, 1:], f[:, :-1], out=keep[:, 1:])
        keep &= f != np.arange(n, dtype=f.dtype)[:, None]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(keep.sum(axis=1), out=indptr[1:])
        return indptr, f[keep]

    @property
    def finger_count(self) -> int:
        return self._m

    def finger_table(self) -> np.ndarray:
        """The ``(n, m+2)`` matrix of finger/successor/predecessor indices."""
        return self._fingers

    # -- routing ---------------------------------------------------------------

    def _start_column(self, d_key: np.ndarray) -> np.ndarray:
        """First finger column a key distance in (0, 1] leaves in play."""
        return self._start[(d_key + _SLACK).view(np.int64) >> 52]

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
        flat = self._flat
        here = ids[cur]
        d_key = _cw(key - here)
        ptr = cur * self._width + self._start_column(d_key)
        arrive = d_key <= self._d_succ[cur]
        d_key += arrive * 2.0
        # int64 indices: NumPy gathers with int32 ones convert them first
        nxt = flat[ptr].astype(np.int64)
        step = np.flatnonzero(_cw(ids[nxt] - here) >= d_key)
        while step.size:
            at = ptr[step] + 1
            ptr[step] = at
            f = flat[at].astype(np.int64)
            nxt[step] = f
            step = step.compress(_cw(ids[f] - here[step]) >= d_key[step])
        return nxt, arrive

    def _walk(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        visit: Callable[[np.ndarray, np.ndarray], None],
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Route every query, calling ``visit(live, nxt)`` once per hop.

        ``live`` lists the queries that take the hop and ``nxt`` the IDs
        they reach; queries leave the batch on reaching their responsible
        ID.  Returns ``(responsible, unresolved, hops)``: the queries
        still in flight after the hop budget, and the hops taken in all.
        Keys lie in ``[0, 1)`` like the IDs (the :meth:`route_many`
        contract), so every difference :func:`_cw` sees is in (-1, 1).

        The queries that leave are exactly the arrived ones.  A computed
        clockwise distance never decreases as the true one grows, so a
        finger whose distance is below the key's lies short of the key
        and is never its responsible ID.
        """
        resp = self.ring.successor_index_bulk(targets)
        live = np.flatnonzero(sources != resp)
        cur, key = sources[live], targets[live]
        hops = 0
        for _ in range(4 * self._m + 8):
            if not live.size:
                break
            nxt, arrive = self._next_hop(cur, key)
            done = np.flatnonzero(arrive)
            nxt[done] = resp[live[done]]
            visit(live, nxt)
            hops += live.size
            if done.size:
                moving = np.flatnonzero(~arrive)
                live, cur, key = live[moving], nxt[moving], key[moving]
            else:
                cur = nxt
        return resp, live, hops

    def route_many(self, sources: np.ndarray, targets: np.ndarray) -> RouteBatch:
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.float64)
        columns: list[tuple[np.ndarray, np.ndarray]] = []
        resp, unresolved, _ = self._walk(
            sources, targets, lambda live, nxt: columns.append((live, nxt))
        )
        paths = np.full((sources.size, len(columns) + 1), PADDING, dtype=np.int32)
        paths[:, 0] = sources
        for col, (live, nxt) in enumerate(columns, 1):
            paths[live, col] = nxt
        resolved = np.ones(sources.size, dtype=bool)
        resolved[unresolved] = False
        return RouteBatch(paths=paths, resolved=resolved, responsible=resp)

    def search_fail(
        self, sources: np.ndarray, targets: np.ndarray, red: np.ndarray
    ) -> tuple[np.ndarray, int]:
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.float64)
        fail = np.zeros(sources.size, dtype=bool)

        def visit(live: np.ndarray, nxt: np.ndarray) -> None:
            fail[live[red[nxt]]] = True

        _, unresolved, hops = self._walk(sources, targets, visit)
        fail[unresolved] = True
        return fail, hops
