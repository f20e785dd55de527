"""Distance-halving input graph [Naor-Wieder, SPAA 2003] (paper ref. [39]).

The *continuous-discrete* construction: think of the unit ring as a
continuous graph where every point ``x`` has edges to ``x/2`` ("left") and
``(x+1)/2`` ("right").  Discretize by giving each ID ``w`` the arc
``(pred(w), w]`` and connecting ``w`` to every ID whose arc intersects the
image of ``w``'s arc under the two maps (plus ring edges).  Expected degree
is ``O(1)``; the paper's Corollary 1 uses exactly this family to get
``O(poly(log log n))`` state per ID.

Routing from ``x`` to key ``t``: write ``t``'s first ``L`` digits
``t_1 t_2 ... t_L`` (base ``b``, MSB first, ``L = ceil(log_b n) + pad``), and
walk ``z_i = (z_{i-1} + c_i) / b`` with ``c_i = t_{L+1-i}``.  Unrolling the
recurrence,

    ``z_L = x / b^L + 0 . t_1 t_2 ... t_L  (base b)``,

i.e. the walk *halves the contribution of the source each step while shifting
in the target's digits*, landing within ``b^{-L} <= 1/(b^2 n)`` of ``t``; a
final ``O(1)``-expected ring walk reaches ``suc(t)``.  Every step of the walk
follows an edge present under the arc-image rule.

The contraction base ``b`` is a class attribute, so the de Bruijn (b=2)
and Kautz-style (b=3) variants share the verified machinery; see
``debruijn.py`` / ``kautz.py``.

Routing runs in lockstep (:meth:`InputGraph._walk`): one NumPy pass per
walk layer, then one per hop of the ring walk.

Congestion: each of the ``L = O(log n)`` walk layers lands uniformly over
the ring, but with raw u.a.r. arcs the maximum-arc ID (arc ``Theta(log n /
n)``) can be hit at every layer, so the honest P4 exponent is ``c = 2``
(same note as ``chord.py``; Lemma 9 absorbs any constant ``c`` via
``k >= 2c + gamma``).
"""

from __future__ import annotations

import math

import numpy as np

from ..idspace.csr import indptr_of
from ..idspace.ring import Ring
from .base import InputGraph

__all__ = ["DistanceHalvingGraph"]

# Hop cap of a ring leg, whose expected length is O(1).
_MAX_TAIL = 64


class DistanceHalvingGraph(InputGraph):
    """Naor-Wieder continuous-discrete overlay with contraction base ``b``."""

    name = "distance-halving"
    congestion_exponent = 2.0
    #: contraction base b
    base = 2

    def __init__(self, ring: Ring):
        # L = ceil(log_b n) digits, plus two so the walk lands within
        # b^-L <= 1 / (b^2 n) of the key
        self._steps = max(1, math.ceil(math.log(max(2, ring.n), self.base))) + 2
        super().__init__(ring)

    @property
    def walk_steps(self) -> int:
        """Digit-walk length ``L`` (number of contraction hops per search)."""
        return self._steps

    # -- topology -------------------------------------------------------------

    def _neighbor_sets(self) -> tuple[np.ndarray, np.ndarray]:
        """Arc-image linking rule, built in one vectorized edge pass.

        ``S_w`` = ring successor & predecessor, owners of the images of
        ``w``'s arc under the ``b`` contraction maps (forward edges), and
        owners of the preimages (the expansion ``z -> b z mod 1``), which are
        the reverse-orientation edges the routing walk traverses from the
        far side.  All sets are recomputable from the ring alone (P3).

        Instead of assembling a Python list per node (the wall-time blocker
        at n = 10^6), all arcs' interval endpoints are computed elementwise,
        resolved to owner ranges with one bulk successor pass, expanded with
        a repeat/arange offset trick, and reduced to per-node
        sorted-unique-self-free lists by one global lexsort + segment dedup
        — property-tested byte-identical to a per-node loop.
        """
        n = self.n
        b = self.base
        lo, hi = self._arc_bounds()
        nodes_idx = np.arange(n)
        wrapped = hi < lo  # wrapped arc (only node 0 after roll): split in two
        w = nodes_idx[wrapped]
        s_node = np.concatenate([nodes_idx[~wrapped], w, w])
        s_lo = np.concatenate([lo[~wrapped], lo[wrapped], np.zeros(w.size)])
        # the first piece ends at the largest float below 1.0, which no ID
        # exceeds, so it never inverts
        s_hi = np.concatenate(
            [hi[~wrapped], np.full(w.size, np.nextafter(1.0, 0.0)), hi[wrapped]]
        )
        # per span: b contraction images + 1 expansion image
        s = s_node.size
        ivlo = np.empty((s, b + 1))
        ivhi = np.empty((s, b + 1))
        for c in range(b):
            ivlo[:, c] = (s_lo + c) / b
            ivhi[:, c] = (s_hi + c) / b
        ivlo[:, b] = (s_lo * b) % 1.0
        ivhi[:, b] = (s_lo * b + (s_hi - s_lo) * b) % 1.0
        # owners of [lo, hi] are suc(lo) .. suc(hi) inclusive along the ring
        a_idx = self.ring.successor_index_bulk(
            np.mod(ivlo.ravel(), 1.0)
        ).astype(np.int64)
        b_idx = self.ring.successor_index_bulk(
            np.mod(ivhi.ravel(), 1.0)
        ).astype(np.int64)
        counts = (b_idx - a_idx) % n + 1
        total = int(counts.sum())
        owner_node = np.repeat(np.repeat(s_node, b + 1), counts)
        offs = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        owner_tgt = (np.repeat(a_idx, counts) + offs) % n
        # ring successor & predecessor edges
        ring_node = np.repeat(nodes_idx, 2)
        ring_tgt = np.empty(2 * n, dtype=np.int64)
        ring_tgt[0::2] = (nodes_idx - 1) % n
        ring_tgt[1::2] = (nodes_idx + 1) % n
        e_node = np.concatenate([ring_node, owner_node])
        e_tgt = np.concatenate([ring_tgt, owner_tgt])
        keep = e_tgt != e_node  # neighbor lists exclude the node itself
        e_node = e_node[keep]
        e_tgt = e_tgt[keep]
        order = np.lexsort((e_tgt, e_node))
        e_node = e_node[order]
        e_tgt = e_tgt[order]
        first = np.empty(e_node.size, dtype=bool)
        if e_node.size:
            first[0] = True
            first[1:] = (e_node[1:] != e_node[:-1]) | (e_tgt[1:] != e_tgt[:-1])
        return indptr_of(np.bincount(e_node[first], minlength=n)), e_tgt[first]

    # -- routing ----------------------------------------------------------------

    def _digits(self, targets: np.ndarray) -> np.ndarray:
        """First ``L`` base-``b`` digits of each target, MSB first: (q, L)."""
        q = targets.size
        L = self._steps
        digs = np.empty((q, L), dtype=np.int64)
        frac = targets.astype(np.float64).copy()
        for j in range(L):
            frac = frac * self.base
            d = np.floor(frac).astype(np.int64)
            d = np.clip(d, 0, self.base - 1)
            digs[:, j] = d
            frac -= d
        return digs

    def walk_points(self, sources_id: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """The ``(q, L+1)`` matrix of walk points ``z_0 .. z_L``.

        ``z_0`` is the source ID value; ``z_L`` is within ``b^{-L}`` of the
        target.  Exposed separately because the de Bruijn variant reuses the
        reversed point sequence.
        """
        q = sources_id.size
        L = self._steps
        digs = self._digits(targets)
        pts = np.empty((q, L + 1), dtype=np.float64)
        pts[:, 0] = sources_id
        z = sources_id.astype(np.float64).copy()
        for i in range(1, L + 1):
            c = digs[:, L - i]  # c_i = t_{L+1-i}
            z = (z + c) / self.base
            pts[:, i] = z
        return pts

    def _walk(self, sources, targets, visit):
        """The digit walk's layer owners ``suc(z_1) .. suc(z_L)``, then
        the ring leg to ``suc(t)`` (:meth:`InputGraph._walk`)."""
        resp = self.ring.successor_index_bulk(targets)
        cur, col = sources.copy(), np.zeros(sources.size, dtype=np.int64)
        pts = self.walk_points(self.ring.ids[sources], targets)
        self._layers(pts[:, 1:], cur, col, visit)
        return resp, self._ring_leg(resp, cur, col, visit)

    def _layers(self, points: np.ndarray, cur: np.ndarray, col: np.ndarray,
                visit) -> None:
        """One pass per column of the ``(q, k)`` ``points``: each query
        hops to the point's owner unless it is already there (walk points
        often share owners)."""
        for layer in points.T:
            owner = self.ring.successor_index_bulk(layer)
            live = np.flatnonzero(owner != cur)
            self._hop(visit, cur, col, live, owner[live])

    def _ring_leg(self, goal: np.ndarray, cur: np.ndarray, col: np.ndarray,
                  visit) -> np.ndarray:
        """Ring hops from ``cur`` to ``goal``, each to the successor or
        the predecessor, whichever side ``goal`` is nearer (both are ring
        edges in ``S_w``; a walk can land just past its goal).  Returns
        the queries still short of ``goal`` after ``_MAX_TAIL`` hops."""
        ids, n = self.ring.ids, self.n
        live = np.flatnonzero(cur != goal)
        for _ in range(_MAX_TAIL):
            if not live.size:
                break
            c, g = cur[live], goal[live]
            fwd = np.mod(ids[g] - ids[c], 1.0) <= np.mod(ids[c] - ids[g], 1.0)
            self._hop(visit, cur, col, live, np.where(fwd, (c + 1) % n, (c - 1) % n))
            live = live[cur[live] != g]
        return live
