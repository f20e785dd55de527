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

The class is parameterized by the contraction base ``b`` so the de Bruijn
(b=2) and Kautz-style (b=3) variants share the verified machinery; see
``debruijn.py`` / ``kautz.py``.

Congestion: each of the ``L = O(log n)`` walk layers lands uniformly over
the ring, but with raw u.a.r. arcs the maximum-arc ID (arc ``Theta(log n /
n)``) can be hit at every layer, so the honest P4 exponent is ``c = 2``
(same note as ``chord.py``; Lemma 9 absorbs any constant ``c`` via
``k >= 2c + gamma``).
"""

from __future__ import annotations

import math

import numpy as np

from ..idspace.ring import Ring
from .base import PADDING, InputGraph, RouteBatch

__all__ = ["DistanceHalvingGraph"]


class DistanceHalvingGraph(InputGraph):
    """Naor-Wieder continuous-discrete overlay with contraction base ``b``."""

    name = "distance-halving"
    congestion_exponent = 2.0

    def __init__(self, ring: Ring, base: int = 2, pad_steps: int = 2,
                 max_tail: int = 64):
        if base < 2:
            raise ValueError("contraction base must be >= 2")
        self._base = int(base)
        self._pad = int(pad_steps)
        self._max_tail = int(max_tail)
        self._steps = max(1, math.ceil(math.log(max(2, ring.n), base))) + self._pad
        super().__init__(ring)

    @property
    def base(self) -> int:
        return self._base

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

        Instead of assembling a Python list per node (the reference loop in
        :meth:`_neighbor_sets_reference`, the wall-time blocker at n = 10^6),
        all arcs' interval endpoints are computed elementwise with the *same*
        float expressions as the scalar path, resolved to owner ranges with
        one bulk successor pass, expanded with a repeat/arange offset trick,
        and reduced to per-node sorted-unique-self-free lists by one global
        lexsort + segment dedup — byte-identical CSR, property-tested.
        """
        n = self.n
        b = self._base
        lo, hi = self._arc_bounds()
        nodes_idx = np.arange(n)
        wrapped = hi < lo  # wrapped arc (only node 0 after roll): split in two
        w = nodes_idx[wrapped]
        s_node = np.concatenate([nodes_idx[~wrapped], w, w])
        s_lo = np.concatenate([lo[~wrapped], lo[wrapped], np.zeros(w.size)])
        s_hi = np.concatenate(
            [hi[~wrapped], np.full(w.size, 1.0 - 1e-15), hi[wrapped]]
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
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(e_node[first], minlength=n), out=indptr[1:])
        return indptr, e_tgt[first]

    def _neighbor_sets_reference(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node loop the vectorized edge pass is defined against."""
        n = self.n
        b = self._base
        lo, hi = self._arc_bounds()
        rows: list[np.ndarray] = []
        for i in range(n):
            pieces = [np.array([(i - 1) % n, (i + 1) % n], dtype=np.int64)]
            a, z = float(lo[i]), float(hi[i])
            if z < a:  # wrapped arc (only node 0 after roll): split
                spans = [(a, 1.0 - 1e-15), (0.0, z)]
            else:
                spans = [(a, z)]
            for sa, sz in spans:
                for c in range(b):
                    # forward (contraction) image of the arc
                    pieces.append(self._owners_of_interval((sa + c) / b, (sz + c) / b))
                # backward (expansion) image: owners of b*arc mod 1 — the
                # reverse-orientation edges (arc length ~1/n, so the image
                # never wraps more than once and stays O(b/n) long)
                pieces.append(
                    self._owners_of_interval((sa * b) % 1.0, (sa * b + (sz - sa) * b) % 1.0)
                )
            row = np.unique(np.concatenate(pieces))
            rows.append(row[row != i])
        indptr = np.zeros(n + 1, dtype=np.int64)
        indptr[1:] = np.cumsum([r.size for r in rows])
        indices = (np.concatenate(rows) if rows else np.empty(0)).astype(np.int64)
        return indptr, indices

    # -- routing ----------------------------------------------------------------

    def _digits(self, targets: np.ndarray) -> np.ndarray:
        """First ``L`` base-``b`` digits of each target, MSB first: (q, L)."""
        q = targets.size
        L = self._steps
        digs = np.empty((q, L), dtype=np.int64)
        frac = targets.astype(np.float64).copy()
        for j in range(L):
            frac = frac * self._base
            d = np.floor(frac).astype(np.int64)
            d = np.clip(d, 0, self._base - 1)
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
            z = (z + c) / self._base
            pts[:, i] = z
        return pts

    def route_many(self, sources: np.ndarray, targets: np.ndarray) -> RouteBatch:
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.float64)
        resp = self.ring.successor_index_many(targets)
        pts = self.walk_points(self.ring.ids[sources], targets)
        # Node visited at each layer = owner (successor) of the walk point.
        nodes = self.ring.successor_index_many(pts.ravel()).reshape(pts.shape)
        nodes[:, 0] = sources  # z_0 is the source's own ID
        return self._finish_with_ring_tail(nodes, resp)

    def _finish_with_ring_tail(self, nodes: np.ndarray, resp: np.ndarray) -> RouteBatch:
        """Append the O(1)-expected ring walk from the last walk node to
        ``suc(t)``, dedupe consecutive repeats, and pack paths."""
        q = nodes.shape[0]
        n = self.n
        succ_of = (np.arange(n) + 1) % n
        rows: list[np.ndarray] = []
        resolved = np.ones(q, dtype=bool)
        for i in range(q):
            seq = nodes[i]
            # collapse consecutive duplicates (walk points often share owners)
            keep = np.ones(seq.size, dtype=bool)
            keep[1:] = seq[1:] != seq[:-1]
            path = list(seq[keep])
            cur = path[-1]
            hops = 0
            target = int(resp[i])
            # The walk can land just past the target (z_L slightly above t);
            # step back via predecessor or forward via successor, whichever
            # the ring orientation requires — both are ring edges in S_w.
            while cur != target and hops < self._max_tail:
                fwd = int(succ_of[cur])
                bwd = (cur - 1) % n
                d_fwd = (self.ring.ids[target] - self.ring.ids[cur]) % 1.0
                d_bwd = (self.ring.ids[cur] - self.ring.ids[target]) % 1.0
                cur = fwd if d_fwd <= d_bwd else bwd
                path.append(cur)
                hops += 1
            if cur != target:
                resolved[i] = False
            rows.append(np.asarray(path, dtype=np.int64))
        return RouteBatch(
            paths=self._pack_paths(rows), resolved=resolved,
            responsible=resp,
        )
