"""Cuckoo rule baseline (paper refs [8]-[10]; simulation methodology of [47]).

Awerbuch & Scheideler's *cuckoo rule* keeps every ``Theta(log n)``-size
group region of the ring near the global bad fraction despite adversarial
churn.  Two scales matter (and must not be conflated):

* **group regions** — the ring is partitioned into ``n / |G|`` regions of
  ``|G|/n`` key space each; the IDs inside one region form a group (the
  object whose good majority we care about);
* **k-regions** — a finer fixed partition into regions of ``k/n`` key space
  (``k`` a constant).  When an ID joins at random point ``x``, *all* IDs in
  the k-region containing ``x`` are evicted and re-placed at fresh random
  points (without recursive eviction).  The constant-size eviction is what
  stops the adversary from aging-attack concentration while costing only
  ``O(1)`` displacements per join.

Sen & Freedman's simulations [47] — quoted in §I-B — found the practical
group sizes remain large: at ``n = 8192`` and ``beta ≈ 0.002``, ``|G| = 64``
is needed to survive ``10^5`` adversarial join/leave events; their
*commensal cuckoo* variant (evicting ``k`` random members of the joiner's
**group** instead of a k-region) tolerates ``beta ≈ 0.07``.  Experiment E12
reruns that methodology and contrasts it with the PoW tiny-group
construction, which gets away with ``Theta(log log n)`` because proof-of-work
rate-limits exactly the rejoin churn this attack is made of.

Execution is array-native relocation: every event's victim cohort
relocates in one batched counter update, and occupancy queries come from
an *incremental occupancy index* — one membership bucket per eviction
region, updated as cohorts move — so a churn event costs ``O(|cohort|)``
instead of an ``O(n)`` ``flatnonzero`` scan.  One canonical RNG
discipline fixes the trajectory: joiner choices and join points are
pre-drawn for the whole attack up front, victim cohorts are enumerated in
ascending ring-index order, and each cohort's fresh points come from a
single ``rng.random(len(victims))`` draw.  The test suite's scalar
bucket-set loop pins trajectories and final counters bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["CuckooResult", "CuckooSimulator"]


@dataclass(frozen=True)
class CuckooResult:
    """Outcome of one cuckoo-rule churn run."""

    n: int
    beta: float
    group_size: int
    k: int
    events_survived: int
    failed: bool
    max_bad_fraction: float
    threshold: float
    commensal: bool


class CuckooSimulator:
    """Group regions + k-region cuckoo eviction under the join-leave attack.

    Parameters
    ----------
    n:
        Total IDs (constant; every departure pairs with a join).
    beta:
        Fraction of IDs controlled by the adversary.
    group_size:
        Average IDs per *group region* (the construction's ``|G|``).
    k:
        Cuckoo eviction granularity: the evicted k-region holds ``k`` IDs in
        expectation.
    commensal:
        Sen-Freedman variant: evict ``k`` random members of the joiner's
        group region instead of the k-region's occupants.
    threshold:
        A group *fails* when its bad fraction reaches this value (1/2 =
        majority loss; [47] uses 1/3 for BFT-compatible groups).
    min_occupancy:
        Groups with fewer present members than this are ignored by the
        failure check (they hold no quorum; with sane parameters occupancy
        stays well above it).
    seed / rng:
        Entropy: pass ``rng`` to make an externally spawned stream the
        *single* entropy source (the sweep substrate's per-case streams do
        this); ``seed`` is the fallback for direct construction.
    """

    def __init__(
        self,
        n: int,
        beta: float,
        group_size: int,
        k: int = 2,
        commensal: bool = False,
        threshold: float = 0.5,
        min_occupancy: int = 3,
        seed: int = 0,
        rng: np.random.Generator | None = None,
    ):
        self.n = int(n)
        self.beta = float(beta)
        self.group_size = int(group_size)
        self.k = max(1, int(k))
        self.commensal = bool(commensal)
        self.threshold = float(threshold)
        self.min_occupancy = int(min_occupancy)
        self.rng = rng if rng is not None else np.random.default_rng(seed)

        self.n_groups = max(1, self.n // self.group_size)
        self.n_kregions = max(1, self.n // self.k)

        self.is_bad = np.zeros(self.n, dtype=bool)
        self.is_bad[: int(round(self.beta * self.n))] = True
        self.rng.shuffle(self.is_bad)

        self.positions = self.rng.random(self.n)
        self.group_of = self._group(self.positions)
        self.kregion_of = self._kregion(self.positions)
        # incremental per-group composition counters
        self.group_total = np.bincount(self.group_of, minlength=self.n_groups)
        self.group_bad = np.bincount(
            self.group_of, weights=self.is_bad.astype(np.float64),
            minlength=self.n_groups,
        ).astype(np.int64)
        # incremental occupancy index: one membership bucket per eviction
        # region (group for commensal, k-region otherwise), kept current
        # by _move_batch — victim cohorts enumerate in O(|region|) instead
        # of an O(n) flatnonzero scan per event
        keyed_by = self.group_of if self.commensal else self.kregion_of
        n_buckets = self.n_groups if self.commensal else self.n_kregions
        self._vbuckets: list[set[int]] = [set() for _ in range(n_buckets)]
        for i in range(self.n):
            self._vbuckets[keyed_by[i]].add(i)

    # -- partitions -------------------------------------------------------------

    def _group(self, pos) -> np.ndarray:
        return np.minimum(
            (np.asarray(pos) * self.n_groups).astype(np.int64), self.n_groups - 1
        )

    def _kregion(self, pos) -> np.ndarray:
        return np.minimum(
            (np.asarray(pos) * self.n_kregions).astype(np.int64), self.n_kregions - 1
        )

    # -- moves -------------------------------------------------------------------

    def _move_batch(self, idxs: np.ndarray, pos: np.ndarray) -> None:
        """Batched relocation: one fused counter update for a whole event
        cohort (joiner + victims).  ``idxs`` are distinct by construction
        (the joiner plus a subset of one partition region that excludes
        it), so the fancy-index assignments cannot collide and reading all
        old groups before writing matches the sequential per-ID move order
        exactly."""
        new_g = np.minimum(
            (pos * self.n_groups).astype(np.int64), self.n_groups - 1
        )
        new_k = np.minimum(
            (pos * self.n_kregions).astype(np.int64), self.n_kregions - 1
        )
        old_g = self.group_of[idxs]
        old_key = old_g if self.commensal else self.kregion_of[idxs]
        new_key = new_g if self.commensal else new_k
        self.positions[idxs] = pos
        delta = np.concatenate([new_g, old_g])
        sign = np.empty(delta.size, dtype=np.int64)
        sign[: new_g.size] = 1
        sign[new_g.size:] = -1
        np.add.at(self.group_total, delta, sign)
        bad = self.is_bad[idxs]
        if bad.any():
            np.add.at(
                self.group_bad,
                np.concatenate([new_g[bad], old_g[bad]]),
                np.concatenate([np.ones(int(bad.sum()), dtype=np.int64),
                                -np.ones(int(bad.sum()), dtype=np.int64)]),
            )
        self.group_of[idxs] = new_g
        self.kregion_of[idxs] = new_k
        # occupancy index upkeep: O(|cohort|) scalar set moves
        for i, okey, nkey in zip(idxs.tolist(), old_key.tolist(), new_key.tolist()):
            if okey != nkey:
                self._vbuckets[okey].discard(i)
                self._vbuckets[nkey].add(i)

    def _join(self, idx: int, pos: float) -> None:
        """Place ``idx`` at ``pos`` and apply the cuckoo rule.

        RNG discipline: the commensal down-sample draw happens iff the
        cohort exceeds ``k`` (one ``choice`` call), then the cohort's fresh
        points come from one ``rng.random`` draw; victims are enumerated
        ascending.

        The victim cohort is enumerated from the *pre-join* arrays: the
        joiner's move only changes its own region membership, and the
        cohort excludes the joiner either way, so the set equals a lookup
        after the joiner's move — which lets the joiner and its victims
        relocate in one fused batch.
        """
        if self.commensal:
            target = min(int(pos * self.n_groups), self.n_groups - 1)
        else:
            target = min(int(pos * self.n_kregions), self.n_kregions - 1)
        # ascending enumeration from the occupancy index == the sorted
        # flatnonzero scan it replaces, so the victim order (and hence the
        # RNG stream) is unchanged
        others = np.asarray(
            sorted(self._vbuckets[target] - {idx}), dtype=np.int64
        )
        if self.commensal and others.size > self.k:
            sel = self.rng.choice(others.size, size=self.k, replace=False)
            others = others[sel]
        new_pos = self.rng.random(others.size)
        cohort = np.empty(others.size + 1, dtype=np.int64)
        cohort[0] = idx
        cohort[1:] = others
        cohort_pos = np.empty(others.size + 1, dtype=np.float64)
        cohort_pos[0] = pos
        cohort_pos[1:] = new_pos
        self._move_batch(cohort, cohort_pos)

    # -- measurement -------------------------------------------------------------

    def max_group_bad_fraction(self) -> float:
        occ = self.group_total >= self.min_occupancy
        if not occ.any():
            return 0.0
        with np.errstate(invalid="ignore"):
            frac = self.group_bad[occ] / np.maximum(self.group_total[occ], 1)
        return float(frac.max())

    def run(self, events: int, check_every: int = 16) -> CuckooResult:
        """Drive the join-leave attack for up to ``events`` churn events.

        Each event: the adversary departs one of its IDs and immediately
        rejoins it (fresh random position + cuckoo eviction) — [47]'s
        attack loop.  Joiner choices and join points for the whole attack
        are pre-drawn as two array operations (part of the canonical
        stream); a run that fails early simply leaves the tail of those
        draws unused.
        """
        bad_idx = np.flatnonzero(self.is_bad)
        max_frac = self.max_group_bad_fraction()
        if bad_idx.size == 0:
            return CuckooResult(
                self.n, self.beta, self.group_size, self.k, events, False,
                max_frac, self.threshold, self.commensal,
            )
        joiners = bad_idx[self.rng.integers(0, bad_idx.size, size=events)]
        join_pos = self.rng.random(events)
        for ev in range(1, events + 1):
            self._join(int(joiners[ev - 1]), float(join_pos[ev - 1]))
            if ev % check_every == 0 or ev == events:
                frac = self.max_group_bad_fraction()
                max_frac = max(max_frac, frac)
                if frac >= self.threshold:
                    return CuckooResult(
                        self.n, self.beta, self.group_size, self.k, ev, True,
                        max_frac, self.threshold, self.commensal,
                    )
        return CuckooResult(
            self.n, self.beta, self.group_size, self.k, events, False,
            max_frac, self.threshold, self.commensal,
        )
