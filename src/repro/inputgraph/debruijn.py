"""D2B: de Bruijn-based input graph [Fraigniaud-Gauron] (paper ref. [19]).

D2B arranges IDs as a continuous de Bruijn graph: the out-edges of a point
``x`` are the *expansion* maps ``x -> b x + c mod 1`` (shift-left, append
digit) — exactly the reverse orientation of the distance-halving contraction
maps (``debruijn`` and ``distance-halving`` are mirror images of each other;
Naor-Wieder §1 makes the same observation).

Routing ``s -> t`` therefore runs the *contraction* walk from ``t`` steered
toward ``s`` and traverses it in reverse: the reversed point sequence

    ``q_0 = t/b^L + 0.s_1..s_L  (≈ s),  q_i = b q_{i-1} mod 1 shifted, ...,
    q_L = t``

follows expansion edges only.  The search starts with an ``O(1)``-expected
ring walk from ``s`` to ``suc(q_0)`` (the landing point differs from ``s`` by
``b^{-L} < 1/(b^2 n)``), then the ``L`` de Bruijn hops end exactly at the
key, where the successor is responsible.  Path length, load, and congestion
are identical to the halving walk — which is why the paper groups [19]/[32]/
[39] together in Corollary 1.

Expected degree is ``O(1)``: arcs have expected length ``1/n`` and each of
the ``b`` expansion images overlaps ``O(b)`` arcs in expectation.
"""

from __future__ import annotations

import numpy as np

from ..idspace.ring import Ring
from .base import RouteBatch
from .distance_halving import DistanceHalvingGraph

__all__ = ["DeBruijnGraph"]


class DeBruijnGraph(DistanceHalvingGraph):
    """Constant-expected-degree de Bruijn (D2B) overlay."""

    name = "debruijn-d2b"
    congestion_exponent = 2.0

    def __init__(self, ring: Ring, pad_steps: int = 2, max_tail: int = 64):
        super().__init__(ring, base=2, pad_steps=pad_steps, max_tail=max_tail)

    def route_many(self, sources: np.ndarray, targets: np.ndarray) -> RouteBatch:
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.float64)
        q = sources.size
        resp = self.ring.successor_index_many(targets)
        # Contraction walk from the *target key point* steered toward the
        # source ID, then reversed: q_i = pts[:, L-i].
        pts = self.walk_points(targets, self.ring.ids[sources])
        rev = pts[:, ::-1]
        nodes = self.ring.successor_index_many(rev.ravel()).reshape(rev.shape)
        n = self.n
        succ_of = (np.arange(n) + 1) % n
        rows: list[np.ndarray] = []
        resolved = np.ones(q, dtype=bool)
        for i in range(q):
            # ring walk from the true source to the landing point suc(q_0)
            head: list[int] = [int(sources[i])]
            cur = int(sources[i])
            first = int(nodes[i, 0])
            hops = 0
            while cur != first and hops < self._max_tail:
                fwd = int(succ_of[cur])
                bwd = (cur - 1) % n
                d_fwd = (self.ring.ids[first] - self.ring.ids[cur]) % 1.0
                d_bwd = (self.ring.ids[cur] - self.ring.ids[first]) % 1.0
                cur = fwd if d_fwd <= d_bwd else bwd
                head.append(cur)
                hops += 1
            if cur != first:
                resolved[i] = False
            seq = np.concatenate([np.asarray(head, dtype=np.int64), nodes[i, 1:]])
            # the de Bruijn walk ends at the key point; owner == responsible
            if seq[-1] != resp[i]:
                seq = np.append(seq, resp[i])
            keep = np.ones(seq.size, dtype=bool)
            keep[1:] = seq[1:] != seq[:-1]
            rows.append(seq[keep])
        return RouteBatch(
            paths=self._pack_paths(rows), resolved=resolved,
            responsible=resp,
        )
