"""The group graph ``G`` (paper §II-A), and the one search classifier.

Given an input graph ``H``, the group graph has one vertex per ID — the
group ``G_w`` led by ``w`` (property S1) — and inherits ``H``'s edges as
all-to-all links between the member sets of adjacent groups (S3).  Each
group is **blue** (good composition *and* correct neighbor set) or **red**
(bad or confused); the adversary owns red groups outright.

Search semantics (§II-A "Overview of Analysis"): a search proceeds along the
same vertex sequence it would take in ``H``; it *fails* the moment it
traverses a red group.  The **search path** is the prefix of the ``H`` path
ending at the first red group (or the whole path on success) — the object
over which *responsibility* ``rho(G_v)`` is defined, because beyond the
first red group the adversary can redirect traffic arbitrarily.

A blue group is never outvoted on the way: its bad members are at most a
``(1 + delta) beta < 1/2`` fraction of it (``SystemParams`` refuses any
other threshold), so the majority filter of every receiver keeps the true
value, and a group whose bad members are not a strict minority is red by
the good-group rule (:func:`~repro.core.groups.composition_bad`).  Hence
the red mask alone decides every search, and :meth:`GroupGraph.evaluate`
is the one classifier: the Monte-Carlo probes of E1/E2, every epoch's
``q_f``, the storage layer and the secure router
(:mod:`repro.core.secure_routing`) all read their verdicts from it.  Given
a padded path matrix from ``InputGraph.route_many``, one gather of the red
mask plus row reductions answer "which searches fail and where" for 10^5
probes at once.  The §III-A construction searches need only the fail bit
and the hop count, so they go through ``InputGraph.search_fail`` instead
and never build a path matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..inputgraph.base import PADDING, InputGraph, RouteBatch
from .groups import GroupSet
from .params import SystemParams

__all__ = ["BatchSearchOutcome", "GroupGraph"]


@dataclass(frozen=True)
class BatchSearchOutcome:
    """Outcome of a batch of group-graph searches.

    Attributes
    ----------
    delivered:
        ``(q,)`` bool — the search resolved and crossed no red group.
    corrupted:
        ``(q,)`` bool — a red group on the path dropped or replaced the
        value.  A search that is neither delivered nor corrupted did not
        resolve.
    hops:
        ``(q,)`` int — traversed edges per probe.
    first_blocked:
        ``(q,)`` int — column of the first red group, or the path length
        if the search met none.
    paths:
        ``(q, L)`` padded path matrix (shared with the routing layer).
    resolved:
        ``(q,)`` bool — the underlying search reached the responsible ID.
    group_sizes:
        ``(n,)`` int — members per group, which :attr:`messages` reads.
    messages:
        ``(q,)`` int — all-to-all message cost per probe, the sum of
        ``|G_i| * |G_{i+1}|`` along its path (Corollary 1).  Computed from
        ``paths`` and ``group_sizes`` on first read and kept: a caller that
        never reads it (the static pass) never pays for its ``(q, L)``
        gather.
    """

    delivered: np.ndarray
    corrupted: np.ndarray
    hops: np.ndarray
    first_blocked: np.ndarray
    paths: np.ndarray
    resolved: np.ndarray
    group_sizes: np.ndarray = field(repr=False)

    @cached_property
    def messages(self) -> np.ndarray:
        valid = self.paths != PADDING
        sizes = np.where(
            valid, self.group_sizes[np.where(valid, self.paths, 0)], 0
        )
        return (sizes[:, :-1] * sizes[:, 1:]).sum(axis=1)

    @property
    def failure_rate(self) -> float:
        return float(1.0 - self.delivered.mean()) if self.delivered.size else 0.0

    def search_path_mask(self) -> np.ndarray:
        """``(q, L)`` bool — positions on the §II-A *search path* (the
        prefix through the first red group inclusive)."""
        cols = np.arange(self.paths.shape[1])
        return (self.paths != PADDING) & (
            cols[None, :] <= self.first_blocked[:, None]
        )


class GroupGraph:
    """Group graph over an input graph, with red/blue vertex marking."""

    def __init__(
        self,
        input_graph: InputGraph,
        params: SystemParams,
        red: np.ndarray,
        groups: GroupSet | None = None,
        group_sizes: np.ndarray | None = None,
    ):
        n = input_graph.n
        red = np.asarray(red, dtype=bool)
        if red.shape != (n,):
            raise ValueError("red mask must have one flag per group/ID")
        self.H = input_graph
        self.params = params
        # freeze a view: the caller's own array stays writeable
        self.red = red.view()
        self.red.setflags(write=False)
        self.groups = groups
        if group_sizes is None:
            if groups is not None:
                group_sizes = groups.sizes()
            else:
                group_sizes = np.full(n, params.group_solicit_size, dtype=np.int64)
        self.group_sizes = np.asarray(group_sizes, dtype=np.int64)

    # -- basic accessors --------------------------------------------------------

    @property
    def n(self) -> int:
        return self.H.n

    @property
    def fraction_red(self) -> float:
        return float(self.red.mean())

    def neighbor_groups(self, g: int) -> np.ndarray:
        """``L_w`` — the groups adjacent to group ``g`` (from ``H``'s S3)."""
        return self.H.neighbors(g)

    # -- search evaluation --------------------------------------------------------

    def evaluate(
        self, batch: RouteBatch, include_source: bool = True
    ) -> BatchSearchOutcome:
        """Classify each routed search per §II-A.

        A search fails iff any group on its ``H`` path — including the
        initiating and responsible groups — is red.  Protocol-internal
        searches (§III-A construction) pass ``include_source=False``: they
        are initiated *by a good party* (the bootstrap group, or a good
        candidate using its own links), so the redness of the group that
        happens to sit at the initiator's position is irrelevant — only
        traversed forwarding groups can derail the search.
        """
        paths = batch.paths
        valid = paths != PADDING
        # one gather for every cell; a padding cell (-1) reads the last
        # group's flag, which the validity mask then clears
        red_m = self.red[paths]
        red_m &= valid
        if not include_source:
            red_m[:, 0] = False
        lengths = valid.sum(axis=1)
        corrupted = red_m.any(axis=1)
        return BatchSearchOutcome(
            delivered=batch.resolved & ~corrupted,
            corrupted=corrupted,
            hops=lengths - 1,
            first_blocked=np.where(corrupted, red_m.argmax(axis=1), lengths),
            paths=paths,
            resolved=batch.resolved,
            group_sizes=self.group_sizes,
        )

    def search_success(
        self, sources: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """Route one batch and report, per query, whether it succeeded."""
        return self.evaluate(self.H.route_many(sources, targets)).delivered

    def responsibility(
        self, probes: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Monte-Carlo estimate of ``rho(G_v)`` for every group (§II-A).

        Counts traversals along *search paths* only (prefix through first
        red group), normalized by probe count — exactly the definition the
        adversary cannot inflate.
        """
        batch = self.H.random_route_batch(probes, rng)
        if not self.red.any():
            # all-blue fast path (E1 / P4): with no red group the search
            # path IS the full H path, so the evaluate() red-scan and
            # prefix mask reduce to the validity mask exactly
            visited = batch.paths[batch.paths != PADDING]
        else:
            visited = batch.paths[self.evaluate(batch).search_path_mask()]
        counts = np.bincount(visited, minlength=self.n).astype(np.float64)
        return counts / probes

    # -- red marking constructors ---------------------------------------------------

    @classmethod
    def with_synthetic_red(
        cls,
        input_graph: InputGraph,
        params: SystemParams,
        pf: float,
        rng: np.random.Generator,
    ) -> "GroupGraph":
        """S2 model: each group red independently with probability ``pf``."""
        red = rng.random(input_graph.n) < pf
        return cls(input_graph, params, red)
