"""Redundant storage at group members (paper §I footnote 2, §I-A).

The paper's motivating application stores each object at the group
responsible for its key: "Data may also be redundantly stored at multiple
group members."  An object survives as long as its group keeps a good
majority of *present* members — good readers majority-filter the replicas,
so corrupt copies held by bad members are outvoted.

:class:`GroupStore` implements the lifecycle the ε-robustness definition
promises for "all but an ε-fraction of data":

* **put** — route to the responsible group, replicate at every member
  (``|G|`` store messages after the search);
* **get** — route to the group, read all replicas, majority-filter; fails
  if the search hits a red group or the replica set has no good majority;
* **repair** (anti-entropy) — after churn, surviving good members
  re-replicate to the group's current membership, restoring the replication
  factor as long as a good majority survived (the reason the ``eps'/2``
  churn cap matters).

Experiment E14 drives this through churn epochs and measures availability
with and without repair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable

import numpy as np

from ..inputgraph.base import RouteBatch
from .costs import CostLedger
from .group_graph import GroupGraph

__all__ = ["GroupStore", "StoreStats"]


@dataclass(frozen=True)
class StoreStats:
    """Aggregate outcome of a batch of store/retrieve operations."""

    attempted: int
    succeeded: int
    failed_routing: int     # search hit a red group
    failed_replicas: int    # no good-majority replica set at the group
    messages: int

    @property
    def availability(self) -> float:
        return self.succeeded / self.attempted if self.attempted else 1.0


@dataclass
class _ObjectRecord:
    key: float
    value: Hashable
    group: int
    # ring indices of members holding a replica; bad members hold garbage
    holders: np.ndarray


class GroupStore:
    """Replicated object store over a group graph.

    ``departed`` is a shared bool array over the member population (the same
    flags churn flips); a departed holder's replica is gone.
    """

    def __init__(
        self,
        gg: GroupGraph,
        bad_mask: np.ndarray,
        departed: np.ndarray | None = None,
        ledger: CostLedger | None = None,
    ):
        if gg.groups is None:
            raise ValueError("GroupStore needs a group graph with explicit members")
        self.gg = gg
        self.bad = np.asarray(bad_mask, dtype=bool)
        self.departed = (
            departed if departed is not None else np.zeros(self.bad.size, dtype=bool)
        )
        self.ledger = ledger if ledger is not None else CostLedger()
        self._objects: Dict[float, _ObjectRecord] = {}

    # -- operations -----------------------------------------------------------

    def _route(self, batch: RouteBatch) -> bool:
        """Classify one routed search and charge its routing messages.

        The search is the store's own (a good party initiates it), so the
        source group's colour is ignored; every search pays the
        ``|G_i| * |G_{i+1}|`` all-to-all cost of each hop (Corollary 1).
        """
        ev = self.gg.evaluate(batch, include_source=False)
        self.ledger.add_messages("routing", int(ev.messages[0]))
        return bool(ev.delivered[0])

    def put(self, key: float, value: Hashable, source: int,
            rng: np.random.Generator) -> bool:
        """Store ``value`` under ``key`` from group ``source``.

        Fails (returns False) if the placement search traverses a red group
        — the adversary then controls where the object "went".
        """
        batch = self.gg.H.route_many(np.array([source]), np.array([key]))
        if not self._route(batch):
            return False
        g = int(batch.responsible[0])
        members = self.gg.groups.members_of(g)
        self.ledger.add_messages("storage", int(members.size))
        self._objects[key] = _ObjectRecord(
            key=key, value=value, group=g, holders=members.copy()
        )
        return True

    def get(self, key: float, source: int,
            rng: np.random.Generator) -> tuple[bool, Hashable | None, str]:
        """Retrieve ``key`` from group ``source``.

        Returns ``(ok, value, reason)`` where reason is one of
        ``"ok" | "missing" | "routing" | "replicas"``.
        """
        rec = self._objects.get(key)
        if rec is None:
            return False, None, "missing"
        batch = self.gg.H.route_many(np.array([source]), np.array([key]))
        if not self._route(batch):
            return False, None, "routing"
        holders = rec.holders[~self.departed[rec.holders]]
        self.ledger.add_messages("storage", int(holders.size))
        good = int((~self.bad[holders]).sum())
        bad = int(holders.size - good)
        # majority filtering over replicas: good copies must strictly win
        if good > bad and good > 0:
            return True, rec.value, "ok"
        return False, None, "replicas"

    def repair(self) -> int:
        """Anti-entropy pass: surviving good holders re-replicate each
        object to the group's *present* membership.  Returns the number of
        objects repaired; objects whose surviving replica set lost its good
        majority are unrecoverable (their content can no longer be
        distinguished from the adversary's forgeries).

        Note this restores the replication factor only within the current
        membership; the cross-epoch repair the dynamic protocol performs —
        re-homing objects into the *next* epoch's fresh groups — is
        :meth:`migrate_to`, and is what actually arrests decay (E14).
        """
        repaired = 0
        for rec in self._objects.values():
            holders = rec.holders[~self.departed[rec.holders]]
            good = int((~self.bad[holders]).sum())
            bad = int(holders.size - good)
            if good > bad and good > 0:
                members = self.gg.groups.members_of(rec.group)
                fresh = members[~self.departed[members]]
                if fresh.size:
                    rec.holders = fresh.copy()
                    self.ledger.add_messages("storage", int(fresh.size))
                    repaired += 1
        return repaired

    def migrate_to(self, other: "GroupStore", rng: np.random.Generator) -> int:
        """Epoch-boundary repair: re-home every recoverable object into a
        fresh group graph (§III: groups are rebuilt each epoch; surviving
        good-majority replica sets re-insert their objects through the new
        graph).  Returns the number of objects migrated; unrecoverable ones
        (no good-majority replica set left) are dropped — they are the
        ε-loss the definition permits."""
        migrated = 0
        for rec in list(self._objects.values()):
            holders = rec.holders[~self.departed[rec.holders]]
            good = int((~self.bad[holders]).sum())
            bad = int(holders.size - good)
            if good > bad and good > 0:
                src = int(rng.integers(other.gg.n))
                if other.put(rec.key, rec.value, src, rng):
                    migrated += 1
        return migrated

    # -- batch measurement -------------------------------------------------------

    def survey(self, rng: np.random.Generator) -> StoreStats:
        """Try to retrieve every stored object from random sources."""
        attempted = succeeded = failed_routing = failed_replicas = 0
        msgs0 = self.ledger.total_messages()
        for key in list(self._objects):
            attempted += 1
            ok, _, reason = self.get(key, int(rng.integers(self.gg.n)), rng)
            if ok:
                succeeded += 1
            elif reason == "routing":
                failed_routing += 1
            elif reason == "replicas":
                failed_replicas += 1
        return StoreStats(
            attempted=attempted,
            succeeded=succeeded,
            failed_routing=failed_routing,
            failed_replicas=failed_replicas,
            messages=self.ledger.total_messages() - msgs0,
        )

    def __len__(self) -> int:
        return len(self._objects)
