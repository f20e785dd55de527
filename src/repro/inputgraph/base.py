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
one routing walk, ``_walk``; everything downstream (group graphs, secure
routing, congestion measurement) is topology-agnostic.  A neighbor set is
a CSR row like a group's member list, and a topology whose rows have a
fixed width (Chord, Viceroy) reduces them with the row dedup that builds
the groups (:func:`~repro.idspace.csr.distinct_rows`).

Routing (P1) never reads the neighbor sets (P3), so the neighbor CSR is
built on first use: the static pipeline, which only searches, never
builds it, while an epoch transition builds it once per new graph for its
neighbor requests (§III-A).  A topology may defer its own routing tables
the same way: Chord computes the finger cells a search reads until its
table pays for itself (:mod:`repro.inputgraph.chord`).

A walk moves every query still in flight one hop per NumPy pass and
reports each pass's hops to a visitor.  :meth:`InputGraph.route_many`
writes them into *padded path matrices* — ``(q, max_hops)`` int32 arrays
with ``-1`` padding — so the group-graph layer can vectorize "does this
search traverse a red group?" checks with one fancy-indexing pass.
Searches that need only that answer and a hop count (the §III-A
construction searches) go through :meth:`InputGraph.search_fail`, whose
visitor marks red hops as they happen: no topology builds paths for it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from ..idspace.csr import distinct_rows, indptr_of
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
    implement the routing walk :meth:`_walk`, which :meth:`route_many` and
    :meth:`search_fail` both run.  The CSR layout (``indptr``/``indices``)
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
        """P3 verification: is ``u`` in the stored ``S_w``?

        All our topologies define ``S_w`` as a deterministic function of the
        ID set, so verification is a recomputation + membership test — the
        in-simulation analogue of the paper's "any ID may determine the
        elements in S_w by performing searches".  This is the membership
        test; :func:`~repro.inputgraph.properties.validate_properties` runs
        it on the links of the rule recomputed from the ring.
        """
        nb = self.neighbors(w)
        pos = int(np.searchsorted(nb, u))
        return pos < nb.size and nb[pos] == u

    def in_neighbors_count(self) -> np.ndarray:
        """How many IDs list each ID as a neighbor (P3's reverse bound)."""
        return np.bincount(self._csr[1], minlength=self.n)

    # -- routing -------------------------------------------------------------------

    @abc.abstractmethod
    def _walk(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        visit: Callable[[np.ndarray, np.ndarray, int | np.ndarray], None],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Route every query, calling ``visit(live, nxt, at)`` once per pass.

        ``sources`` are int64 ring indices and ``targets`` float64 keys in
        ``[0, 1)``.  Each pass moves the queries ``live`` one hop, to the
        IDs ``nxt``; ``at`` is the path column of those hops (the source
        is column 0): one int when every query in flight takes every
        pass, else one column per query.  A pass never has an empty
        ``live``.  Returns ``(responsible, unresolved)``: ``suc(target)``
        per query at the ring's index dtype, and the queries that did not
        reach it within the hop budget.
        """

    def route_many(self, sources: np.ndarray, targets: np.ndarray) -> RouteBatch:
        """Route searches ``sources[i] -> targets[i]`` (P1).

        Parameters
        ----------
        sources:
            ``(q,)`` ring indices of the initiating IDs.
        targets:
            ``(q,)`` key points in ``[0, 1)``.
        """
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.float64)
        hops: list[tuple[np.ndarray, np.ndarray, int | np.ndarray]] = []
        resp, unresolved = self._walk(
            sources, targets, lambda live, nxt, at: hops.append((live, nxt, at))
        )
        # an int ``at`` (Chord's hop number) needs no NumPy reduction, which
        # every one-query route (each served request) would pay per hop
        width = 1 + max((at if isinstance(at, int) else int(at.max())
                         for _, _, at in hops), default=0)
        paths = np.full((sources.size, width), PADDING, dtype=np.int32)
        paths[:, 0] = sources
        for live, nxt, at in hops:
            paths[live, at] = nxt
        resolved = np.ones(sources.size, dtype=bool)
        resolved[unresolved] = False
        return RouteBatch(paths=paths, resolved=resolved, responsible=resp)

    def search_fail(
        self, sources: np.ndarray, targets: np.ndarray, red: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Route searches and report which ones fail under the ``red`` flags.

        Query ``i`` fails when it does not resolve or when an ID it
        traverses *after* its source is red (the source's own flag does not
        count).  Returns ``(fail, hops)``: the ``(q,)`` bool fail mask and
        the total number of hops the batch took.  The walk's visitor marks
        the red hops as they happen, so no path is built.
        """
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.float64)
        fail = np.zeros(sources.size, dtype=bool)
        hops = 0

        def visit(live: np.ndarray, nxt: np.ndarray, at) -> None:
            nonlocal hops
            fail[live[red[nxt]]] = True
            hops += live.size

        _, unresolved = self._walk(sources, targets, visit)
        fail[unresolved] = True
        return fail, hops

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

    @staticmethod
    def _hop(visit, cur: np.ndarray, col: np.ndarray, live: np.ndarray,
             nxt: np.ndarray) -> None:
        """Move the queries ``live`` to the IDs ``nxt``, in a walk whose
        queries may skip a pass: each keeps its own ID in ``cur`` and its
        path column in ``col``.  A pass that moves no query visits
        nothing."""
        if live.size:
            cur[live] = nxt
            col[live] += 1
            visit(live, nxt, col[live])

    @staticmethod
    def _sorted_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The CSR of each row's distinct entries, ascending, less the
        row's own index: per row exactly ``np.unique(row[row != i])``
        (:func:`~repro.idspace.csr.distinct_rows`, which sorts ``rows`` in
        place)."""
        counts, flat = distinct_rows(
            rows, drop=np.arange(rows.shape[0], dtype=rows.dtype))
        return indptr_of(counts), flat

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n={self.n})"
