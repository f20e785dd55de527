"""Input-graph contract: properties P1-P4 (paper §I-C).

The paper's construction is generic over any overlay topology ``H`` on the
unit ring that provides:

* **P1 — search functionality**: a routing algorithm resolving any key in
  ``[0,1)`` to the responsible ID in ``D = O(log N)`` traversed IDs;
* **P2 — load balancing**: a random ID is responsible for at most a
  ``(1+delta'')/N`` fraction of the key space;
* **P3 — linking rules**: each ID ``w`` has a neighbor set ``S_w`` of size
  ``O(log^gamma n)`` that *any* ID can recompute/verify via searches;
* **P4 — congestion**: the max over IDs of the probability of being traversed
  by a random search is ``C = O(log^c n / n)``.

:class:`InputGraph` encodes that contract.  Concrete topologies (Chord,
distance halving, D2B, Kautz, Viceroy) implement ``_neighbor_sets`` and
``route_many``; everything downstream (group graphs, secure routing,
congestion measurement) is topology-agnostic.

Routing (P1) reads only a topology's own routing tables, never the
neighbor sets (P3), so the neighbor CSR is built on first use: the static
pipeline, which only searches, never builds it, while an epoch transition
builds it once per new graph for its neighbor requests (§III-A).

Routing results are returned as *padded path matrices* — ``(q, max_hops)``
int32 arrays with ``-1`` padding — so the group-graph layer can vectorize
"does this search traverse a red group?" checks with one fancy-indexing pass.
Searches that need only that answer and a hop count (the §III-A
construction searches) go through :meth:`InputGraph.search_fail`, which a
topology may answer without building paths at all.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ..idspace.ring import Ring

__all__ = ["InputGraph", "RouteBatch", "PADDING"]

PADDING: int = -1


@dataclass(frozen=True)
class RouteBatch:
    """Result of a batch of searches.

    Attributes
    ----------
    paths:
        ``(q, L)`` int32 matrix; row ``i`` lists the ring indices traversed by
        query ``i`` in order — source first, responsible ID last — padded
        with :data:`PADDING`.
    resolved:
        ``(q,)`` bool; whether the search reached the responsible ID within
        the hop budget (always true for correct topologies; guarded by tests).
    responsible:
        ``(q,)`` int32; ring index of ``suc(target)`` for each query.
    """

    paths: np.ndarray
    resolved: np.ndarray
    responsible: np.ndarray

    @property
    def hop_counts(self) -> np.ndarray:
        """Number of traversed IDs minus one (edges) per query."""
        return (self.paths != PADDING).sum(axis=1) - 1

    def traversal_counts(self, n: int) -> np.ndarray:
        """How many searches traversed each ring index (for P4 estimates)."""
        flat = self.paths[self.paths != PADDING]
        return np.bincount(flat, minlength=n)


class InputGraph(abc.ABC):
    """Abstract overlay topology over a :class:`~repro.idspace.ring.Ring`.

    Subclasses must set :attr:`name`, build neighbor sets in CSR form, and
    implement :meth:`route_many`.  The CSR layout (``indptr``/``indices``)
    keeps every neighbor set in two flat arrays: ``neighbors(i)`` is
    ``indices[indptr[i]:indptr[i+1]]``.  Construction does not build it;
    the first call of a neighbor accessor (:meth:`neighbors`,
    :meth:`neighbor_lists`, :meth:`degrees`, :meth:`verify_link`,
    :meth:`in_neighbors_count`) does, once per graph.
    """

    #: human-readable topology name ("chord", "distance-halving", ...)
    name: str = "abstract"
    #: congestion exponent c such that C = O(log^c n / n) for this topology
    congestion_exponent: float = 1.0
    #: hidden constant of the P1 hop bound (routing-phase dependent)
    hop_constant: float = 4.0

    def __init__(self, ring: Ring):
        self.ring = ring

    # -- topology ----------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.ring.n

    @abc.abstractmethod
    def _neighbor_sets(self) -> tuple[np.ndarray, np.ndarray]:
        """Build the CSR ``(indptr, indices)`` of neighbor ring-indices.

        Neighbor lists must be sorted, unique, and exclude the node itself.
        """

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The neighbor CSR ``(indptr, indices)``, built on first use."""
        indptr, indices = self._neighbor_sets()
        # Storage narrowing (ring.index_dtype): neighbor indices are ring
        # indices (< n) so they always fit the ring's index dtype; indptr
        # values reach nnz, so it only narrows when the edge count fits too.
        # Values are identical either way — only the byte layout changes.
        dt = self.ring.index_dtype
        ptr_dt = dt if int(indices.size) <= np.iinfo(dt).max else np.int64
        indptr = indptr.astype(ptr_dt, copy=False)
        indices = indices.astype(dt, copy=False)
        # Defensive: CSR arrays are read-only once built.
        indptr.setflags(write=False)
        indices.setflags(write=False)
        return indptr, indices

    def neighbors(self, idx: int) -> np.ndarray:
        """``S_w`` for the ID at ring index ``idx`` (P3)."""
        indptr, indices = self._csr
        return indices[indptr[idx] : indptr[idx + 1]]

    def neighbor_lists(self) -> tuple[np.ndarray, np.ndarray]:
        """The raw CSR arrays ``(indptr, indices)`` for bulk consumers."""
        return self._csr

    def degrees(self) -> np.ndarray:
        """Out-degree (|S_w|) of every ID."""
        return np.diff(self._csr[0])

    def verify_link(self, w: int, u: int) -> bool:
        """P3 verification: is ``u`` in ``S_w`` under the linking rules?

        All our topologies define ``S_w`` as a deterministic function of the
        ID set, so verification is a recomputation + membership test — the
        in-simulation analogue of the paper's "any ID may determine the
        elements in S_w by performing searches".
        """
        nb = self.neighbors(w)
        pos = int(np.searchsorted(nb, u))
        return pos < nb.size and nb[pos] == u

    def in_neighbors_count(self) -> np.ndarray:
        """How many IDs list each ID as a neighbor (P3's reverse bound)."""
        return np.bincount(self._csr[1], minlength=self.n)

    # -- routing -------------------------------------------------------------------

    @abc.abstractmethod
    def route_many(self, sources: np.ndarray, targets: np.ndarray) -> RouteBatch:
        """Route searches ``sources[i] -> targets[i]`` (P1).

        Parameters
        ----------
        sources:
            ``(q,)`` ring indices of the initiating IDs.
        targets:
            ``(q,)`` key points in ``[0, 1)``.
        """

    def search_fail(
        self, sources: np.ndarray, targets: np.ndarray, red: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Route searches and report which ones fail under the ``red`` flags.

        Query ``i`` fails when it does not resolve or when an ID it
        traverses *after* its source is red (the source's own flag does not
        count).  Returns ``(fail, hops)``: the ``(q,)`` bool fail mask and
        the total number of hops the batch took.  This default routes the
        paths and scans them; a topology may override it with a walk that
        never materializes paths, provided both results are identical.
        """
        batch = self.route_many(sources, targets)
        after = batch.paths[:, 1:]
        visited = after != PADDING
        hit = (red[after] & visited).any(axis=1)
        return hit | ~batch.resolved, int(visited.sum())

    def route(self, source: int, target: float) -> tuple[np.ndarray, bool]:
        """Single-query convenience wrapper around :meth:`route_many`."""
        batch = self.route_many(np.asarray([source]), np.asarray([target]))
        path = batch.paths[0]
        return path[path != PADDING], bool(batch.resolved[0])

    def random_route_batch(
        self, count: int, rng: np.random.Generator
    ) -> RouteBatch:
        """``count`` searches from u.a.r. sources to u.a.r. key points."""
        src = rng.integers(0, self.n, size=count)
        tgt = rng.random(count)
        return self.route_many(src, tgt)

    # -- shared helpers for subclasses ----------------------------------------------

    def _arc_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node ownership arcs ``(lo, hi]`` with ``lo`` the predecessor ID."""
        ids = self.ring.ids
        lo = np.roll(ids, 1)
        return lo, ids

    def _owners_of_interval(self, lo: float, hi: float) -> np.ndarray:
        """Ring indices of all IDs responsible for some point in ``[lo, hi]``.

        ``hi`` may be < ``lo`` (wrapping interval).  The owners are
        ``suc(lo) .. suc(hi)`` inclusive along the ring.
        """
        a = self.ring.successor_index(lo % 1.0)
        b = self.ring.successor_index(hi % 1.0)
        if a <= b:
            return np.arange(a, b + 1)
        return np.concatenate([np.arange(a, self.n), np.arange(0, b + 1)])

    @staticmethod
    def _pack_paths(rows: Sequence[np.ndarray]) -> np.ndarray:
        """Pack variable-length index paths into a padded matrix."""
        q = len(rows)
        width = max((len(r) for r in rows), default=1)
        out = np.full((q, width), PADDING, dtype=np.int32)
        for i, r in enumerate(rows):
            out[i, : len(r)] = r
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n={self.n})"
