"""Classic ``Theta(log n)``-group baseline (paper §I, refs [7]-[10], [18]).

Every pre-existing group construction uses ``|G| = Theta(log n)``: with
u.a.r. membership, a Chernoff bound makes *every* group good with
probability ``1 - 1/poly(n)`` — the ``eps = 1/poly(n)`` regime the paper
generalizes away from.  The price is quadratically larger group machinery:
group communication ``Theta(log^2 n)``, routing ``O(D log^2 n)``, state
``Omega(log^2 n)`` — the costs Corollary 1 beats.

This baseline reuses the tiny-group machinery verbatim with the group size
swapped to ``Theta(log n)``, so every cost and robustness comparison is
apples-to-apples: same ring, same input graph, same adversary, same probes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.group_graph import GroupGraph
from ..core.groups import GroupQuality, GroupSet, build_groups_fast, classify_groups
from ..core.params import SystemParams
from ..inputgraph.base import InputGraph

__all__ = ["LogNBaseline", "build_logn_static"]


@dataclass(frozen=True)
class LogNBaseline:
    """A classic-construction group graph plus its derived sizes."""

    group_graph: GroupGraph
    groups: GroupSet
    quality: GroupQuality
    group_size: int

    @property
    def fraction_red(self) -> float:
        return self.group_graph.fraction_red


def build_logn_static(
    H: InputGraph,
    params: SystemParams,
    bad_mask: np.ndarray,
    rng: np.random.Generator,
    size_multiplier: float = 1.0,
) -> LogNBaseline:
    """Build the ``Theta(log n)``-group graph over the same substrate.

    ``solicit = size_multiplier * logn_group_size`` points per group; the
    good-group rule keeps the same ``(1+delta)beta`` bad-fraction threshold
    and scales the minimum size proportionally (half the solicited count,
    mirroring the tiny construction's ``d1/d2`` ratio).
    """
    solicit = max(4, int(round(size_multiplier * params.logn_group_size)))
    gs = build_groups_fast(H.ring, params, rng, solicit=solicit)
    quality = classify_groups(
        gs, bad_mask, params,
        min_size=max(2, solicit // 2),
        threshold=params.bad_member_threshold,
    )
    gg = GroupGraph(H, params, red=quality.is_bad.copy(), groups=gs)
    return LogNBaseline(
        group_graph=gg, groups=gs, quality=quality, group_size=solicit
    )
