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

from .distance_halving import DistanceHalvingGraph

__all__ = ["DeBruijnGraph"]


class DeBruijnGraph(DistanceHalvingGraph):
    """Constant-expected-degree de Bruijn (D2B) overlay."""

    name = "debruijn-d2b"
    congestion_exponent = 2.0

    def _walk(self, sources, targets, visit):
        """The ring head to ``suc(q_0)``, then the layer owners
        ``suc(q_1) .. suc(q_L)`` (:meth:`InputGraph._walk`).  The last of
        them is ``suc(t)`` itself, so the walk ends at the responsible
        ID even when the head ran out of hops: that query is unresolved.
        """
        resp = self.ring.successor_index_bulk(targets)
        cur, col = sources.copy(), np.zeros(sources.size, dtype=np.int64)
        # the contraction walk from the key steered toward the source,
        # reversed: q_i = pts[:, L - i]
        pts = self.walk_points(targets, self.ring.ids[sources])[:, ::-1]
        head = self.ring.successor_index_bulk(pts[:, 0])
        unresolved = self._ring_leg(head, cur, col, visit)
        self._layers(pts[:, 1:], cur, col, visit)
        return resp, unresolved
