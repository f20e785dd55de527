"""Viceroy: butterfly-based constant-degree overlay [Malkhi-Naor-Ratajczak]
(paper ref. [32], one of Corollary 1's O(1)-degree input graphs).

Viceroy emulates a butterfly network on the ring: every ID draws a *level*
``l in {1..m}``, ``m ~ log2 n`` (here derived deterministically from the ID
via a dedicated oracle, so any party can recompute and verify it — P3), and
links to:

* its ring successor/predecessor (general ring),
* the nearest same-level node clockwise/counter-clockwise (level ring),
* **down edges** (level ``l -> l+1``): the level-``l+1`` nodes nearest to
  its own position ("down-left") and to ``x + 2^-l`` ("down-right"),
* an **up edge** (``l -> l-1``): the nearest level-``l-1`` node.

Routing to key ``t``: climb up-edges to a level-1 node (``<= m`` hops), then
descend the butterfly — at level ``l`` take the down-right edge iff the
remaining clockwise distance to ``t`` is at least ``2^-l`` (the butterfly's
distance-halving step), else down-left — landing within ``~1/n`` of ``t``,
then ring-walk to ``suc(t)``.  Total ``O(log n)`` hops with ``O(1)`` degree.

Routing runs in lockstep (:meth:`InputGraph._walk`): each ID's up edge and
level-ring neighbors are stored once, so the climb and the ring finish are
gathers, and the descent takes one NumPy pass per level.
"""

from __future__ import annotations

import math

import numpy as np

from ..idspace.hashing import RandomOracle
from ..idspace.ring import Ring
from .base import InputGraph

__all__ = ["ViceroyGraph"]

# Hop cap of the ring finish, whose expected length is O(log n).
_MAX_TAIL = 64


def _ring_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance between points ``a`` and ``b`` the shorter way round."""
    return np.minimum(np.mod(a - b, 1.0), np.mod(b - a, 1.0))


class ViceroyGraph(InputGraph):
    """Butterfly (Viceroy-style) overlay with O(1) degree."""

    name = "viceroy"
    congestion_exponent = 2.0
    # three routing phases (climb + descend + ring finish) => a larger
    # O(log n) constant than single-phase greedy topologies
    hop_constant = 8.0

    def __init__(self, ring: Ring):
        super().__init__(ring)
        n, ids, dt = ring.n, ring.ids, ring.index_dtype
        # at most one level per node, so the level fill below can leave
        # none empty (a one-ID ring has a single level)
        m = self._m = min(n, max(2, round(math.log2(max(4, n)))))
        oracle = RandomOracle("viceroy-level", 0)
        # deterministic, verifiable level assignment (P3): level from the ID
        # (stored at the ring's index dtype like every per-node array)
        self.levels = np.array(
            [1 + int(oracle(float(v)) * m) for v in ids], dtype=dt
        )
        self.levels = np.clip(self.levels, 1, m)
        # per-level sorted position indices for nearest-at-level queries
        self._level_nodes: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
        for lvl in range(1, m + 1):
            self._level_nodes.append(np.flatnonzero(self.levels == lvl))
        # guarantee no empty level (tiny rings): demote/promote round-robin
        for lvl in range(1, m + 1):
            if self._level_nodes[lvl].size == 0:
                donor = max(range(1, m + 1),
                            key=lambda j: self._level_nodes[j].size)
                moved = self._level_nodes[donor][:1]
                self.levels[moved] = lvl
                self._level_nodes[donor] = self._level_nodes[donor][1:]
                self._level_nodes[lvl] = moved
        # each ID's up edge (a level-1 ID keeps itself) and its level-ring
        # successor and predecessor (itself, alone on its level)
        self._up = np.arange(n, dtype=dt)
        self._level_next = np.empty(n, dtype=dt)
        self._level_prev = np.empty(n, dtype=dt)
        for lvl in range(1, m + 1):
            nodes = self._level_nodes[lvl]
            j = np.searchsorted(ids[nodes], ids[nodes], side="right")
            self._level_next[nodes] = nodes[j % nodes.size]
            self._level_prev[nodes] = nodes[(j - 2) % nodes.size]
            if lvl > 1:
                self._up[nodes] = self._nearest_at_level(lvl - 1, ids[nodes])

    # -- level-aware successor queries ------------------------------------------

    def _nearest_at_level(self, lvl: int, points: np.ndarray) -> np.ndarray:
        """Ring indices of the first level-``lvl`` node clockwise of each
        point."""
        nodes = self._level_nodes[lvl]
        i = np.searchsorted(self.ring.ids[nodes], points, side="left")
        return nodes[i % nodes.size]

    @property
    def level_count(self) -> int:
        return self._m

    # -- topology -------------------------------------------------------------------

    def _neighbor_sets(self) -> tuple[np.ndarray, np.ndarray]:
        """Ring successor and predecessor, level-ring successor and
        predecessor, the up edge and the two down edges of every ID, an
        absent edge read as the ID itself."""
        n, ids = self.n, self.ring.ids
        i = np.arange(n)
        # the last two columns hold the down edges; the last level has none
        rows = np.column_stack([(i + 1) % n, (i - 1) % n, self._level_next,
                                self._level_prev, self._up, i, i])
        for lvl in range(1, self._m):
            nodes = self._level_nodes[lvl]
            # down-left: nearest to its own position; down-right: to x + 2^-l
            rows[nodes, 5] = self._nearest_at_level(lvl + 1, ids[nodes])
            rows[nodes, 6] = self._nearest_at_level(
                lvl + 1, np.mod(ids[nodes] + 2.0**-lvl, 1.0))
        return self._sorted_rows(rows)

    # -- routing ----------------------------------------------------------------------

    def _walk(self, sources, targets, visit):
        """Climb -> butterfly descent -> level ring + vanilla ring
        (:meth:`InputGraph._walk`).

        The descent stops once the halving step ``2^-l`` falls below the
        per-level node gap (~``m/n``): beyond that point each down edge
        drifts more than it halves.  The residual distance is then covered
        on the *level ring* (gap ~``m/n``, so O(log n) hops) and the last
        sliver on the vanilla ring — the three-ring finish of the original
        Viceroy design that keeps total dilation O(log n).
        """
        ids, n = self.ring.ids, self.n
        resp = self.ring.successor_index_bulk(targets)
        cur, col = sources.copy(), np.zeros(sources.size, dtype=np.int64)
        # phase 1: climb to level 1, one level per pass
        live = np.flatnonzero(self.levels[cur] > 1)
        while live.size:
            self._hop(visit, cur, col, live, self._up[cur[live]])
            live = live[self.levels[cur[live]] > 1]
        # phase 2: butterfly descent while halving beats the drift scale.
        # At level l a query takes the down-right edge iff its clockwise
        # distance d to the key is at least 2^-l.  It leaves the descent
        # at its responsible ID, once d falls below the drift scale, or
        # when d grows: a down edge's clockwise drift overshot the key.
        drift_scale = 2.0 * self._m / n
        prev_d = np.full(sources.size, np.inf)
        live = np.arange(sources.size)
        for lvl in range(1, self._m):
            c = cur[live]
            d = np.mod(targets[live] - ids[c], 1.0)
            go = np.flatnonzero(
                (c != resp[live]) & (d >= drift_scale) & (d <= prev_d[live]))
            if not go.size:
                break
            live, c, d = live[go], c[go], d[go]
            prev_d[live] = d
            step = 2.0**-lvl
            hop_point = np.where(d >= step, np.mod(ids[c] + step, 1.0), ids[c])
            self._hop(visit, cur, col, live,
                      self._nearest_at_level(lvl + 1, hop_point))
        # phase 3: ring finish.  Every hop picks the best strictly-improving
        # move among {vanilla succ, vanilla pred, level-ring next, level-ring
        # prev}, the first of them on a tie: the vanilla moves guarantee
        # progress, while the level-ring strides (~m/n) accelerate across
        # the residual so the tail stays O(log n) instead of O(residual * n).
        live = np.flatnonzero(cur != resp)
        for _ in range(_MAX_TAIL):
            c, goal = cur[live], ids[resp[live]]
            best, best_d = c, _ring_dist(goal, ids[c])
            for cand in ((c + 1) % n, (c - 1) % n,
                         self._level_next[c], self._level_prev[c]):
                d = _ring_dist(goal, ids[cand])
                closer = d < best_d
                best, best_d = np.where(closer, cand, best), np.minimum(d, best_d)
            moved = np.flatnonzero(best != c)
            if not moved.size:  # a consistent ring always moves
                break
            live = live[moved]
            self._hop(visit, cur, col, live, best[moved])
            live = live[cur[live] != resp[live]]
        return resp, np.flatnonzero(cur != resp)
