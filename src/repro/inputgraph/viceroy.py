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

Implementation note: the routing loop is per-query Python (the climb/descend
alternation doesn't batch as cleanly as Chord's gathers); Viceroy is
therefore the verification topology, while Chord remains the default for
large Monte-Carlo sweeps.
"""

from __future__ import annotations

import math

import numpy as np

from ..idspace.hashing import RandomOracle
from ..idspace.ring import Ring
from .base import InputGraph, RouteBatch

__all__ = ["ViceroyGraph"]


class ViceroyGraph(InputGraph):
    """Butterfly (Viceroy-style) overlay with O(1) degree."""

    name = "viceroy"
    congestion_exponent = 2.0
    # three routing phases (climb + descend + ring finish) => a larger
    # O(log n) constant than single-phase greedy topologies
    hop_constant = 8.0

    def __init__(self, ring: Ring, level_seed: int = 0, max_tail: int = 64):
        n = ring.n
        # at most one level per node, so the level fill below can leave
        # none empty (a one-ID ring has a single level)
        self._m = min(n, max(2, round(math.log2(max(4, n)))))
        self._max_tail = int(max_tail)
        oracle = RandomOracle("viceroy-level", level_seed)
        # deterministic, verifiable level assignment (P3): level from the ID
        # (stored at the ring's index dtype like every per-node array)
        self.levels = np.array(
            [1 + int(oracle(float(v)) * self._m) for v in ring.ids],
            dtype=ring.index_dtype,
        )
        self.levels = np.clip(self.levels, 1, self._m)
        # per-level sorted position indices for nearest-at-level queries
        self._level_nodes: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
        for lvl in range(1, self._m + 1):
            self._level_nodes.append(np.flatnonzero(self.levels == lvl))
        # guarantee no empty level (tiny rings): demote/promote round-robin
        for lvl in range(1, self._m + 1):
            if self._level_nodes[lvl].size == 0:
                donor = max(range(1, self._m + 1),
                            key=lambda j: self._level_nodes[j].size)
                moved = self._level_nodes[donor][:1]
                self.levels[moved] = lvl
                self._level_nodes[donor] = self._level_nodes[donor][1:]
                self._level_nodes[lvl] = moved
        super().__init__(ring)

    # -- level-aware successor queries ------------------------------------------

    def _nearest_at_level(self, lvl: int, point: float) -> int:
        """Ring index of the first level-``lvl`` node clockwise of ``point``."""
        nodes = self._level_nodes[lvl]
        pos = self.ring.ids[nodes]
        i = int(np.searchsorted(pos, point, side="left"))
        return int(nodes[0 if i == nodes.size else i])

    @property
    def level_count(self) -> int:
        return self._m

    # -- topology -------------------------------------------------------------------

    def _neighbor_sets(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.n
        ids = self.ring.ids
        rows: list[np.ndarray] = []
        for i in range(n):
            lvl = int(self.levels[i])
            nbrs = {(i - 1) % n, (i + 1) % n}
            # level ring: nearest same-level node clockwise (and it links back)
            nodes = self._level_nodes[lvl]
            if nodes.size > 1:
                pos = ids[nodes]
                j = int(np.searchsorted(pos, ids[i], side="right"))
                nbrs.add(int(nodes[j % nodes.size]))
                nbrs.add(int(nodes[(j - 2) % nodes.size]))
            # down edges
            if lvl < self._m:
                nbrs.add(self._nearest_at_level(lvl + 1, float(ids[i])))
                nbrs.add(
                    self._nearest_at_level(lvl + 1, float((ids[i] + 2.0**-lvl) % 1.0))
                )
            # up edge
            if lvl > 1:
                nbrs.add(self._nearest_at_level(lvl - 1, float(ids[i])))
            nbrs.discard(i)
            rows.append(np.asarray(sorted(nbrs), dtype=np.int64))
        indptr = np.zeros(n + 1, dtype=np.int64)
        indptr[1:] = np.cumsum([r.size for r in rows])
        indices = (np.concatenate(rows) if rows else np.empty(0)).astype(np.int64)
        return indptr, indices

    # -- routing ----------------------------------------------------------------------

    def _route_one(self, src: int, target: float, resp: int) -> np.ndarray:
        """Climb -> butterfly descent -> level ring -> vanilla ring.

        The descent stops once the halving step ``2^-l`` falls below the
        per-level node gap (~``m/n``): beyond that point each down edge
        drifts more than it halves.  The residual distance is then covered
        on the *level ring* (gap ~``m/n``, so O(log n) hops) and the last
        sliver on the vanilla ring — the three-ring finish of the original
        Viceroy design that keeps total dilation O(log n).
        """
        ids = self.ring.ids
        n = self.n
        path = [src]
        cur = src
        # phase 1: climb to level 1
        guard = 0
        while self.levels[cur] > 1 and guard < self._m + 4:
            cur = self._nearest_at_level(int(self.levels[cur]) - 1, float(ids[cur]))
            if cur != path[-1]:
                path.append(cur)
            guard += 1
        # phase 2: butterfly descent while halving beats the drift scale.
        # Forward distance must shrink every hop; an *increase* means a
        # down-edge's clockwise drift wrapped us past the target (overshoot).
        drift_scale = 2.0 * self._m / n
        prev_d = None
        for lvl in range(1, self._m):
            if cur == resp:
                break
            d = (target - ids[cur]) % 1.0
            if d < drift_scale:
                break  # residual below the drift scale: finish on rings
            if prev_d is not None and d > prev_d:
                break  # overshot the target
            hop_point = (ids[cur] + 2.0**-lvl) % 1.0 if d >= 2.0**-lvl else ids[cur]
            nxt = self._nearest_at_level(lvl + 1, float(hop_point))
            prev_d = d
            if nxt != cur:
                path.append(nxt)
                cur = nxt
        # phase 3: ring finish.  Every hop picks the best strictly-improving
        # move among {vanilla succ, vanilla pred, current level-ring next,
        # current level-ring prev}: the vanilla moves guarantee progress
        # (distance to the responsible node strictly decreases), while the
        # level-ring strides (~m/n) accelerate across the residual so the
        # tail stays O(log n) instead of O(residual * n).
        hops = 0
        while cur != resp and hops < self._max_tail:
            cur_dist = min(
                (ids[resp] - ids[cur]) % 1.0, (ids[cur] - ids[resp]) % 1.0
            )
            lvl = int(self.levels[cur])
            nodes = self._level_nodes[lvl]
            pos = ids[nodes]
            j = int(np.searchsorted(pos, ids[cur], side="right"))
            candidates = [
                (cur + 1) % n,
                (cur - 1) % n,
                int(nodes[j % nodes.size]),
                int(nodes[(j - 2) % nodes.size]),
            ]
            best, best_dist = cur, cur_dist
            for cand in candidates:
                if cand == cur:
                    continue
                d = min(
                    (ids[resp] - ids[cand]) % 1.0, (ids[cand] - ids[resp]) % 1.0
                )
                if d < best_dist:
                    best, best_dist = cand, d
            if best == cur:  # cannot happen on a consistent ring; safety
                break
            cur = best
            path.append(cur)
            hops += 1
        return np.asarray(path, dtype=np.int64)

    def route_many(self, sources: np.ndarray, targets: np.ndarray) -> RouteBatch:
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.float64)
        resp = self.ring.successor_index_many(targets)
        rows = [
            self._route_one(int(s), float(t), int(r))
            for s, t, r in zip(sources, targets, resp)
        ]
        resolved = np.asarray(
            [row[-1] == r for row, r in zip(rows, resp)], dtype=bool
        )
        return RouteBatch(
            paths=self._pack_paths(rows), resolved=resolved, responsible=resp
        )
