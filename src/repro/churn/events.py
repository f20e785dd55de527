"""Join/departure event streams (paper §III).

For *event-granular* churn (the polynomially-many-events claim of
Theorem 3) rather than epoch-batched churn, :class:`EventStream` produces
an alternating sequence of (departure, join) pairs keeping ``n``
constant, with the adversary choosing *which of its own* IDs rejoin —
the classic rejoin attack that the cuckoo rule exists to blunt.  (The
cuckoo-rule baseline, :mod:`repro.baselines.cuckoo`, pre-draws its own
joiners and does not use this stream.)
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

__all__ = ["EventKind", "ChurnEvent", "EventStream"]


class EventKind(Enum):
    DEPART = "depart"
    JOIN = "join"


@dataclass(frozen=True)
class ChurnEvent:
    kind: EventKind
    id_index: int          # index of the departing ID / placeholder for join
    is_bad: bool
    step: int


class EventStream:
    """Generates paired depart/join events.

    ``adversary_drive`` is the fraction of events the adversary spends
    cycling its *own* IDs (leave + immediately rejoin) — the strategy that
    lets it grind placements in systems without placement-randomizing
    defenses.  The remaining events churn random good IDs.
    """

    def __init__(
        self,
        n: int,
        bad_mask: np.ndarray,
        adversary_drive: float = 1.0,
        seed: int = 0,
    ):
        self.n = int(n)
        self.bad_mask = np.asarray(bad_mask, dtype=bool).copy()
        self.adversary_drive = float(adversary_drive)
        self.rng = np.random.default_rng(seed)

    def events(self, count: int) -> Iterator[tuple[ChurnEvent, ChurnEvent]]:
        """Yield ``count`` (depart, join) event pairs."""
        bad_idx = np.flatnonzero(self.bad_mask)
        good_idx = np.flatnonzero(~self.bad_mask)
        for step in range(count):
            adversarial = self.rng.random() < self.adversary_drive and bad_idx.size
            if adversarial:
                victim = int(self.rng.choice(bad_idx))
                is_bad = True
            else:
                victim = int(self.rng.choice(good_idx))
                is_bad = False
            yield (
                ChurnEvent(EventKind.DEPART, victim, is_bad, step),
                ChurnEvent(EventKind.JOIN, victim, is_bad, step),
            )
