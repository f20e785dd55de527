"""Copy-on-publish epoch snapshots and the canonical query answer.

A query hitting epoch ``N`` must be answered from a *consistent* view of
epoch ``N``'s pair.  The simulator mutates its pair in place during the
next transition (churn flips ``ring_departed`` flags; ``reclassify``
swaps the red masks), so :func:`build_snapshot` copies the red mask at
publication time and wraps a :class:`~repro.core.secure_routing.
SecureRouter` around a group graph over that copy — after that the
snapshot shares only immutable state with the simulator (the input graph
``H`` is never mutated; the graph freezes its red copy).  The router
precomputes nothing: each query is classified from the red copy when it
is answered.  Publication is then a single reference assignment on the
event loop: readers see the old epoch or the new one, never a half-built
one.

:func:`canonical_response` fixes the response wire format —
``json.dumps(answer, sort_keys=True, separators=(",", ":"))`` — so the
offline oracle can re-derive a response and compare **bytes**, not
semantics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ..core.group_graph import GroupGraph
from ..core.membership import EpochPair
from ..core.params import SystemParams
from ..core.secure_routing import SecureRouter
from ..inputgraph.base import PADDING

__all__ = ["EpochSnapshot", "build_snapshot", "canonical_response"]


def canonical_response(answer: dict) -> str:
    """The one serialized form of an answer (byte-comparable)."""
    return json.dumps(answer, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class EpochSnapshot:
    """One epoch's immutable query surface: a router over a frozen red
    mask, plus metadata.

    An answer's ``first_blocked`` is the position of the first red group
    on the path, or the path length when the search met none; an answer
    that is neither delivered nor corrupted did not resolve.
    """

    epoch: int
    n: int
    router: SecureRouter

    def answer(self, source, target) -> dict:
        """The canonical answer dict for one secure-routing query.

        Runs a single-probe :meth:`~repro.core.secure_routing.SecureRouter.
        search_batch` (scalar parity is pinned by the routing test suite)
        and flattens the outcome into plain JSON types.  Raises
        ``ValueError`` on an out-of-domain source/target — the service
        maps that to an error response, never a crash.
        """
        if isinstance(source, bool) or not isinstance(source, (int, np.integer)):
            raise ValueError(f"source must be an integer, got {source!r}")
        if not 0 <= source < self.n:
            raise ValueError(f"source {source} out of range [0, {self.n})")
        if isinstance(target, bool) or not isinstance(
            target, (int, float, np.floating)
        ):
            raise ValueError(f"target must be a number, got {target!r}")
        target = float(target)
        if not 0.0 <= target < 1.0:
            raise ValueError(f"target {target} out of range [0, 1)")
        out = self.router.search_batch(
            np.asarray([source], dtype=np.int64),
            np.asarray([target], dtype=np.float64),
        )
        row = out.paths[0]
        return {
            "epoch": int(self.epoch),
            "source": int(source),
            "target": target,
            "delivered": bool(out.delivered[0]),
            "corrupted": bool(out.corrupted[0]),
            "resolved": bool(out.resolved[0]),
            "hops": int(out.hops[0]),
            "messages": int(out.messages[0]),
            "first_blocked": int(out.first_blocked[0]),
            "path": [int(g) for g in row[row != PADDING]],
        }

    def outcome_of(self, answer: dict) -> str:
        """The telemetry outcome label for an answer from this snapshot."""
        if answer["delivered"]:
            return "delivered"
        return "corrupted" if answer["corrupted"] else "unresolved"


def build_snapshot(
    pair: EpochPair, params: SystemParams, epoch: int
) -> EpochSnapshot:
    """Freeze ``pair``'s graph-1 query surface as of right now.

    Copy-on-publish: the red mask is copied (the simulator's next
    ``reclassify`` replaces its own arrays, and churn mutates departure
    flags in place — neither may leak into a published epoch).  The
    router keeps no table of its own: each answer reads the copy.
    """
    gg = GroupGraph(pair.H, params, red=pair.red(1).copy())
    return EpochSnapshot(epoch=int(epoch), n=int(pair.n), router=SecureRouter(gg))
