"""Secure routing between groups (paper §I, §II-A, Figure 1).

For an edge ``(G_w, G_v)`` between blue groups there are all-to-all links
between (at least) their good members.  A message crosses the edge by every
member of ``G_w`` transmitting to every member of ``G_v``; each good member
of ``G_v`` keeps the **majority value** — correctness follows whenever the
*sending* group has a good majority, no matter what its bad members send.

A blue group always has one: its bad members are at most a
``(1 + delta) beta < 1/2`` fraction of it, and a group whose bad members
are not a strict minority is red by the good-group rule.  So a value is
never outvoted inside a blue group, and the first red group on the path is
where the adversary can corrupt or drop it — Figure 1's story.  The router
therefore adds no classifier of its own: :meth:`GroupGraph.evaluate
<repro.core.group_graph.GroupGraph.evaluate>` decides every verdict, and
this module charges the ``|G_i| * |G_{i+1}|`` messages per hop to a
:class:`~repro.core.costs.CostLedger`.

Two execution paths share those semantics:

* :meth:`SecureRouter.search` — the scalar per-hop loop (one probe at a
  time): the reference oracle;
* :meth:`SecureRouter.search_batch` / :meth:`SecureRouter.route_outcomes`
  — the vectorized kernel: the routed batch's padded path matrix is
  classified by ``GroupGraph.evaluate`` in one pass.  Parity with the
  scalar path is pinned by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..inputgraph.base import RouteBatch
from .costs import CostLedger
from .group_graph import BatchSearchOutcome, GroupGraph

__all__ = ["SecureRouter", "SecureSearchOutcome"]


@dataclass(frozen=True)
class SecureSearchOutcome:
    """Result of one secure group-graph search."""

    delivered: bool            # correct value reached the responsible group
    corrupted: bool            # a red group replaced/dropped the value
    hops: int
    messages: int
    path: np.ndarray           # group indices traversed (search path)
    # position of the first red group, or len(path) if none — the
    # boundary of the §II-A "search path" prefix
    first_blocked: int = -1


class SecureRouter:
    """Secure-routing simulator over a group graph.

    A red group behaves adversarially as a unit (S3 gives the adversary
    full control of it); a blue group forwards the value intact, since its
    good members outvote its bad ones.  The router is stateless beyond the
    graph: verdicts come from :meth:`GroupGraph.evaluate
    <repro.core.group_graph.GroupGraph.evaluate>`, and message costs from
    the graph's group sizes.
    """

    def __init__(self, gg: GroupGraph):
        self.gg = gg

    def search(
        self,
        source: int,
        target: float,
        ledger: CostLedger | None = None,
    ) -> SecureSearchOutcome:
        """Route a value from group ``source`` toward key ``target``.

        Per hop: every member of the current group sends its stored value to
        every member of the next group, and good receivers majority-filter.
        The first red group on the path owns the value outright (perfect
        collusion) and may replace or drop it — the moment the paper's
        analysis calls "traversing a red group".  The outcome's
        ``messages`` is this search's own ``sum |G_i| |G_{i+1}|``, every
        hop counted, those past the first red group included; each hop is
        also charged to ``ledger``.

        This is the scalar reference path, one probe at a time;
        :meth:`search_batch` evaluates whole probe batches against the same
        semantics in one vectorized pass.
        """
        path, resolved = self.gg.H.route(source, target)
        sizes = self.gg.group_sizes
        messages = 0
        first_blocked = len(path)
        for col, g in enumerate(path):
            if col:
                a, b = int(sizes[path[col - 1]]), int(sizes[g])
                messages += a * b
                if ledger is not None:
                    ledger.inter_group_hop(a, b)
            if first_blocked == len(path) and self.gg.red[g]:
                first_blocked = col
        corrupted = first_blocked < len(path)
        return SecureSearchOutcome(
            delivered=resolved and not corrupted,
            corrupted=corrupted,
            hops=len(path) - 1,
            messages=messages,
            path=np.asarray(path, dtype=np.int64),
            first_blocked=first_blocked,
        )

    def search_batch(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        ledger: CostLedger | None = None,
    ) -> BatchSearchOutcome:
        """Vectorized :meth:`search` over probe arrays.

        Routes all ``sources[i] -> targets[i]`` searches at once and
        classifies the padded path matrix (see :meth:`route_outcomes`).
        Scalar-parity is pinned by the tests: row ``i`` equals
        ``search(sources[i], targets[i])``.  A workload too large for one
        pass is windowed by its caller
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
        """Classify an already-routed batch and charge its messages.

        The verdicts are :meth:`GroupGraph.evaluate
        <repro.core.group_graph.GroupGraph.evaluate>`'s, source included.
        The message costs are computed here only to charge ``ledger``;
        otherwise on the outcome's first read of them.
        """
        out = self.gg.evaluate(batch)
        if ledger is not None:
            ledger.add_messages("routing", int(out.messages.sum()))
        return out
