"""Secure routing between groups (paper §I, §II-A, Figure 1).

For an edge ``(G_w, G_v)`` between blue groups there are all-to-all links
between (at least) their good members.  A message crosses the edge by every
member of ``G_w`` transmitting to every member of ``G_v``; each good member
of ``G_v`` keeps the **majority value** — correctness follows whenever the
*sending* group has a good majority, no matter what its bad members send.

This module gives the message-level semantics:

* :func:`majority_filter` — the per-receiver filtering rule;
* :class:`SecureRouter` — executes searches over a :class:`GroupGraph`,
  simulating per-member value transmission (bad members send adversarial
  values, coordinated — single-adversary model §I-C) and charging
  ``|G_i| * |G_{i+1}|`` messages per hop to a
  :class:`~repro.core.costs.CostLedger`.

Two execution paths share those semantics:

* :meth:`SecureRouter.search` — the scalar per-hop loop (one probe at a
  time, explicit vote lists through :func:`majority_filter`): the reference
  oracle;
* :meth:`SecureRouter.search_batch` / :meth:`SecureRouter.route_outcomes`
  — the vectorized kernel: all probe paths walk the group graph in
  lockstep over the padded path matrix, with the per-group good-majority
  and vote-survival tests precomputed once as boolean arrays (via
  ``GroupSet.bad_counts``), so one fancy-indexing pass classifies every
  probe.  Parity with the scalar path is pinned by the test suite.

The outcome reproduces Figure 1's story: a search that only crosses blue
groups delivers the correct value; the first red group on the path can
corrupt or drop it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Iterable

import numpy as np

from ..inputgraph.base import PADDING, RouteBatch
from .costs import CostLedger
from .group_graph import GroupGraph

__all__ = [
    "majority_filter",
    "BatchSearchOutcome",
    "SecureRouter",
    "SecureSearchOutcome",
]


def majority_filter(values: Iterable[Hashable]) -> Hashable | None:
    """Strict-majority filtering by a receiving member.

    The contract (pinned so the batched kernel and this scalar rule cannot
    disagree on edge cases):

    * **empty input** -> ``None`` — a receiver with no senders keeps
      nothing;
    * a value held by *strictly more than half* the senders is returned;
    * **exact ties included**: any multiset whose most frequent value
      reaches exactly half (or less) yields ``None`` — the receiver drops
      the message rather than guess.  With ``g`` good senders of one value
      and ``b`` adversarial senders, the good value therefore survives iff
      ``2g > g + b`` — the same ``2 * bad < size`` test the vectorized
      kernel precomputes per group.
    """
    values = list(values)
    if not values:
        return None
    counts: dict[Hashable, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    best, cnt = max(counts.items(), key=lambda kv: kv[1])
    return best if cnt * 2 > len(values) else None


@dataclass(frozen=True)
class SecureSearchOutcome:
    """Result of one secure group-graph search."""

    delivered: bool            # correct value reached the responsible group
    corrupted: bool            # a red group replaced/dropped the value
    hops: int
    messages: int
    path: np.ndarray           # group indices traversed (search path)
    # position of the first group that blocked the value (lacking a good
    # majority, or its vote dropped the payload), or len(path) if none —
    # the boundary of the §II-A "search path" prefix
    first_blocked: int = -1


@dataclass(frozen=True)
class BatchSearchOutcome:
    """Vectorized outcome of a batch of secure searches.

    Attributes
    ----------
    delivered, corrupted:
        ``(q,)`` bool — per-probe verdicts, same semantics as the scalar
        :class:`SecureSearchOutcome`.
    hops:
        ``(q,)`` int — traversed edges per probe.
    first_blocked:
        ``(q,)`` int — column of the first blocking group, or the path
        length if the value survived end to end.
    paths:
        ``(q, L)`` padded path matrix (shared with the routing layer).
    resolved:
        ``(q,)`` bool — the underlying search reached the responsible ID.
    group_sizes:
        ``(n,)`` int — members per group, which :attr:`messages` reads.
    messages:
        ``(q,)`` int — all-to-all message cost per probe, the sum of
        ``|G_i| * |G_{i+1}|`` along its path.  Computed from ``paths``
        and ``group_sizes`` on first read and kept: a caller that never
        reads it (the static pass) never pays for its ``(q, L)`` gather.
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
        prefix through the first blocking group inclusive)."""
        cols = np.arange(self.paths.shape[1])
        return (self.paths != PADDING) & (
            cols[None, :] <= self.first_blocked[:, None]
        )


class SecureRouter:
    """Member-level secure-routing simulator over a group graph.

    ``bad_member_fraction`` per group is derived from the attached
    :class:`~repro.core.groups.GroupSet` when available, else from the red
    flag (red groups behave adversarially as a unit — S3 gives the adversary
    full control of them anyway).

    The constructor precomputes the two per-group boolean tests every
    search needs — *has a good majority* and *a vote among its members
    keeps the payload* — so the batched kernel touches no Python-level
    state per probe.  Without a bad mask a red group is all bad and any
    other all good, so both tests are "not red": that router builds the
    one ``~red`` table and shares it between them.
    """

    def __init__(self, gg: GroupGraph, bad_mask: np.ndarray | None = None):
        self.gg = gg
        if gg.groups is None or bad_mask is None:
            # bad_frac is 1 on red groups and 0 elsewhere: the general
            # tests below reduce to ~red (a zero-bad vote always passes)
            self._bad_frac = np.where(gg.red, 1.0, 0.0)
            self._good_majority = self._transmit_ok = ~gg.red
            return
        counts = gg.groups.bad_counts(bad_mask)
        sizes = np.maximum(gg.groups.sizes(), 1)
        self._bad_frac = counts / sizes
        # good majority: composition below 1/2 bad and not marked red
        self._good_majority = (self._bad_frac < 0.5) & ~gg.red
        # vote survival: the scalar path materializes size-many votes and
        # majority-filters them; precomputed, payload survives group g iff
        # 2 * round(bad_frac * size) < size (see majority_filter contract)
        eff_sizes = np.maximum(self.gg.group_sizes, 1)
        n_bad = np.round(self._bad_frac * eff_sizes).astype(np.int64)
        self._transmit_ok = self._good_majority & (2 * n_bad < eff_sizes)

    def group_has_good_majority(self, g: int) -> bool:
        return bool(self._good_majority[g])

    def search(
        self,
        source: int,
        target: float,
        payload: Hashable = "PAYLOAD",
        ledger: CostLedger | None = None,
    ) -> SecureSearchOutcome:
        """Route ``payload`` from group ``source`` toward key ``target``.

        Per hop: every member of the current group sends its stored value to
        every member of the next group; good receivers majority-filter.  If
        the current group lacks a good majority the adversary substitutes its
        own value (perfect collusion), corrupting the search — the moment the
        paper's analysis calls "traversing a red group".

        This is the scalar reference path: one probe, explicit vote lists.
        :meth:`search_batch` evaluates whole probe batches against the same
        semantics in one vectorized pass.
        """
        ledger = ledger if ledger is not None else CostLedger()
        path, resolved = self.gg.H.route(source, target)
        sizes = self.gg.group_sizes
        value: Hashable | None = payload
        corrupted = False
        first_blocked = len(path)
        hops = 0
        traversed = [path[0]]
        if not self.group_has_good_majority(int(path[0])):
            corrupted = True
            first_blocked = 0
        for col, (a, b) in enumerate(zip(path[:-1], path[1:])):
            a, b = int(a), int(b)
            ledger.inter_group_hop(int(sizes[a]), int(sizes[b]))
            hops += 1
            traversed.append(b)
            if corrupted:
                # adversary already owns the value; it may forward garbage
                continue
            if not self.group_has_good_majority(a):
                corrupted = True
                first_blocked = col
                continue
            # Sending group has good majority: > half of the per-receiver
            # values are the true payload, so majority_filter keeps it.
            n_members = max(1, int(sizes[a]))
            n_bad = int(round(self._bad_frac[a] * n_members))
            votes = [value] * (n_members - n_bad) + ["ADV"] * n_bad
            value = majority_filter(votes)
            if value != payload:
                corrupted = True
                first_blocked = col
        if not corrupted and not self.group_has_good_majority(int(path[-1])):
            corrupted = True
            first_blocked = len(path) - 1
        delivered = resolved and not corrupted and value == payload
        return SecureSearchOutcome(
            delivered=delivered,
            corrupted=corrupted,
            hops=hops,
            messages=ledger.messages.get("routing", 0),
            path=np.asarray(traversed, dtype=np.int64),
            first_blocked=first_blocked,
        )

    def search_batch(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        ledger: CostLedger | None = None,
    ) -> BatchSearchOutcome:
        """Vectorized :meth:`search` over probe arrays.

        Routes all ``sources[i] -> targets[i]`` searches at once and walks
        the resulting padded path matrix in lockstep (see
        :meth:`route_outcomes`).  Scalar-parity is pinned by the tests:
        row ``i`` equals ``search(sources[i], targets[i])``.  A workload
        too large for one pass is windowed by its caller
        (:func:`~repro.core.static_case.measure_static_search_streamed`).
        """
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.float64)
        return self.route_outcomes(
            self.gg.H.route_many(sources, targets), ledger=ledger
        )

    def route_outcomes(
        self,
        batch: RouteBatch,
        ledger: CostLedger | None = None,
    ) -> BatchSearchOutcome:
        """Classify an already-routed batch with the member-level semantics.

        All probes advance column-by-column in lockstep over the padded
        path matrix; per-group outcomes are two precomputed boolean gathers
        (sending positions must pass good-majority *and* the vote, the
        final position only good-majority), so the first blocking column
        and the verdicts fall out of masked reductions with no per-probe
        Python work.  The message costs are computed here only to charge
        ``ledger``; otherwise on the outcome's first read of them.
        """
        paths = batch.paths
        q, L = paths.shape
        valid = paths != PADDING
        lengths = valid.sum(axis=1)
        cols = np.arange(L)
        is_last = cols[None, :] == (lengths - 1)[:, None]
        # blocked[i, j]: the group at position j stops the payload there
        blocked = np.zeros((q, L), dtype=bool)
        sending = valid & ~is_last
        blocked[sending] = ~self._transmit_ok[paths[sending]]
        last = valid & is_last
        blocked[last] = ~self._good_majority[paths[last]]
        has_block = blocked.any(axis=1)
        first_blocked = np.where(has_block, blocked.argmax(axis=1), lengths)
        corrupted = has_block
        delivered = batch.resolved & ~corrupted
        out = BatchSearchOutcome(
            delivered=delivered,
            corrupted=corrupted,
            hops=lengths - 1,
            first_blocked=first_blocked,
            paths=paths,
            resolved=batch.resolved,
            group_sizes=self.gg.group_sizes,
        )
        if ledger is not None:
            ledger.add_messages("routing", int(out.messages.sum()))
        return out

    def search_cost_batch(
        self, probes: int, rng: np.random.Generator, ledger: CostLedger | None = None
    ) -> tuple[float, CostLedger]:
        """Average routing messages per search over random probes (Cor. 1).

        Vectorized: message count per search is the sum of ``|G_i| |G_{i+1}|``
        along the path, computed directly from the padded path matrix.
        """
        ledger = ledger if ledger is not None else CostLedger()
        batch = self.gg.H.random_route_batch(probes, rng)
        paths = batch.paths
        sizes = self.gg.group_sizes
        valid = paths != PADDING
        sz = np.where(valid, sizes[np.clip(paths, 0, None)], 0)
        per_hop = sz[:, :-1] * sz[:, 1:]
        total = int(per_hop.sum())
        ledger.add_messages("routing", total)
        return total / probes, ledger
