"""The group graph ``G`` (paper §II-A).

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

The evaluation routines here classify Monte-Carlo probe batches (the
responsibility and failure estimates of E1/E2 and every epoch's ``q_f``):
given a padded path matrix from ``InputGraph.route_many`` and the red flags,
one boolean gather + cumulative reduction answers "which searches fail and
where" for 10^5 probes at once.  The §III-A construction searches need only
the fail bit and the hop count, so they go through
``InputGraph.search_fail`` instead and never build a path matrix on Chord.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..inputgraph.base import PADDING, InputGraph, RouteBatch
from .groups import GroupSet
from .params import SystemParams

__all__ = ["GroupGraph", "SearchEvaluation"]


@dataclass(frozen=True)
class SearchEvaluation:
    """Vectorized outcome of a batch of group-graph searches.

    Attributes
    ----------
    success:
        ``(q,)`` bool — search traversed only blue groups and resolved.
    search_path_mask:
        ``(q, L)`` bool — True at the positions belonging to the *search
        path* (prefix through the first red group inclusive).
    first_red_col:
        ``(q,)`` int — column of the first red group, or ``L`` if none.
    """

    success: np.ndarray
    search_path_mask: np.ndarray
    first_red_col: np.ndarray

    @property
    def failure_rate(self) -> float:
        return float(1.0 - self.success.mean()) if self.success.size else 0.0


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

    def evaluate(self, batch: RouteBatch, include_source: bool = True) -> SearchEvaluation:
        """Classify each routed search as success/failure per §II-A.

        A search fails iff any group on its ``H`` path — including the
        initiating and responsible groups — is red.  Protocol-internal
        searches (§III-A construction) pass ``include_source=False``: they
        are initiated *by a good party* (the bootstrap group, or a good
        candidate using its own links), so the redness of the group that
        happens to sit at the initiator's position is irrelevant — only
        traversed forwarding groups can derail the search.
        """
        paths = batch.paths
        q, L = paths.shape
        valid = paths != PADDING
        red_m = np.zeros((q, L), dtype=bool)
        red_m[valid] = self.red[paths[valid]]
        if not include_source:
            red_m[:, 0] = False
        has_red = red_m.any(axis=1)
        first_red = np.where(has_red, red_m.argmax(axis=1), L)
        cols = np.arange(L)
        mask = valid & (cols[None, :] <= first_red[:, None])
        success = (~has_red) & batch.resolved
        return SearchEvaluation(
            success=success, search_path_mask=mask, first_red_col=first_red
        )

    def search_success(
        self, sources: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """Route one batch and report, per query, whether it succeeded."""
        return self.evaluate(self.H.route_many(sources, targets)).success

    def sample_failure_rate(
        self, probes: int, rng: np.random.Generator
    ) -> tuple[float, SearchEvaluation, RouteBatch]:
        """Estimate ``X`` — the probability that a search from a random group
        for a random key fails (the random variable of Lemmas 2-3)."""
        batch = self.H.random_route_batch(probes, rng)
        ev = self.evaluate(batch)
        return ev.failure_rate, ev, batch

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
            ev = self.evaluate(batch)
            visited = batch.paths[ev.search_path_mask]
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
