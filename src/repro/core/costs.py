"""Message and state cost accounting (paper §I costs (i)-(iii), Corollary 1).

The paper's headline win is a cost reduction over the three cost
categories the introduction defines:

(i)   **group communication** — all-to-all exchanges inside one group,
      ``Theta(|G|^2)`` messages per operation;
(ii)  **secure routing** — all-to-all exchanges between consecutive groups
      on a search path, ``O(D |G|^2)`` per search;
(iii) **state maintenance** — per-ID link state: members of the groups the
      ID belongs to, plus the members of neighboring groups.

The simulator counts the messages of costs (i) and (ii) in a
:class:`CostLedger` — a plain counter bag, cheap enough to thread through
hot loops — and :func:`corollary1_predictions` gives their closed-form
expectations.  Per-ID state (cost iii) is not counted by the ledger:
:func:`corollary1_predictions` predicts it, and E7's membership counts
measure it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

__all__ = ["CostLedger", "corollary1_predictions", "CostPrediction"]


class CostLedger:
    """Accumulates message and operation counts by category.

    Categories are free-form strings; the conventional ones are
    ``"group_comm"``, ``"routing"``, ``"maintenance"``, ``"pow"``,
    ``"gossip"``.
    """

    __slots__ = ("messages", "operations")

    def __init__(self):
        self.messages: Dict[str, int] = {}
        self.operations: Dict[str, int] = {}

    # -- messages ---------------------------------------------------------------

    def add_messages(self, category: str, count: int) -> None:
        self.messages[category] = self.messages.get(category, 0) + int(count)

    def group_comm(self, group_size: int, rounds: int = 1) -> None:
        """One all-to-all exchange inside a group: ``|G| (|G|-1)`` messages."""
        self.add_messages("group_comm", rounds * group_size * max(0, group_size - 1))

    def inter_group_hop(self, size_a: int, size_b: int) -> None:
        """All-to-all exchange between two groups on a route: ``|A| |B|``."""
        self.add_messages("routing", size_a * size_b)

    def total_messages(self) -> int:
        return sum(self.messages.values())

    # -- ops --------------------------------------------------------------------

    def count_op(self, name: str, times: int = 1) -> None:
        self.operations[name] = self.operations.get(name, 0) + int(times)

    def merge(self, other: "CostLedger") -> "CostLedger":
        for k, v in other.messages.items():
            self.add_messages(k, v)
        for k, v in other.operations.items():
            self.count_op(k, v)
        return self

    def snapshot(self) -> dict:
        return {
            "messages": dict(self.messages),
            "operations": dict(self.operations),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"CostLedger(messages={self.messages}, operations={self.operations})"


@dataclass(frozen=True)
class CostPrediction:
    """Corollary 1 cost expectations for one configuration."""

    n: int
    group_size: int
    route_length: float
    group_comm_messages: int
    routing_messages_per_search: float
    state_per_id: float
    label: str

    def rows(self) -> list[tuple[str, str]]:
        return [
            ("group size |G|", str(self.group_size)),
            ("group comm msgs (|G|(|G|-1))", str(self.group_comm_messages)),
            ("routing msgs/search (D*|G|^2)", f"{self.routing_messages_per_search:.0f}"),
            ("expected state/ID", f"{self.state_per_id:.0f}"),
        ]


def corollary1_predictions(
    n: int, group_size: int, route_length: float, memberships: float | None = None,
    neighbor_groups: float | None = None, label: str = "",
) -> CostPrediction:
    """Closed-form cost model behind Corollary 1.

    * group communication: ``|G| (|G| - 1)`` messages per all-to-all round —
      ``O((log log n)^2)`` for tiny groups vs ``O(log^2 n)`` for the classic
      construction;
    * secure routing: ``D`` inter-group hops, each ``|G|^2`` messages;
    * state: each ID belongs to ``O(log log n)`` groups in expectation
      (Lemma 10) and tracks members of its own and neighboring groups:
      ``memberships * |G| + neighbor_groups * |G|``.
    """
    memberships = math.log(max(math.e, math.log(n))) if memberships is None else memberships
    neighbor_groups = 2.0 if neighbor_groups is None else neighbor_groups
    return CostPrediction(
        n=n,
        group_size=group_size,
        route_length=route_length,
        group_comm_messages=group_size * (group_size - 1),
        routing_messages_per_search=route_length * group_size * group_size,
        state_per_id=(memberships + neighbor_groups) * group_size,
        label=label or f"n={n},|G|={group_size}",
    )
