"""Concrete adversary strategies (paper §I-C, §III-B Lemma 5, §IV-A).

* :class:`UniformAdversary` — u.a.r. placement; what the two-hash PoW scheme
  *forces* (Lemma 11).  The baseline threat model of Sections II-III.
* :class:`ClusterAdversary` — all bad IDs inside one arc; models a system
  **without** the ``f(g(.))`` composition, where the adversary grinds
  puzzle inputs until its IDs land where it wants (§IV-A "Why Use Two Hash
  Functions?").  The end-to-end tests place it directly; experiment E8's
  ablation instead mints IDs through ``PuzzleScheme``'s one-hash windows.
* :class:`OmissionAdversary` — draws u.a.r. IDs but only *fields* the subset
  inside a chosen arc: exactly Lemma 5's ``N2 ⊂`` larger-u.a.r.-set model.
  P1-P4 must survive this (Lemma 5), unlike the cluster attack.
* :class:`KeyTargetAdversary` — clusters around one key to try to capture
  the group responsible for a specific resource.
"""

from __future__ import annotations

import numpy as np

from .base import Adversary

__all__ = [
    "UniformAdversary",
    "ClusterAdversary",
    "OmissionAdversary",
    "KeyTargetAdversary",
]


class UniformAdversary(Adversary):
    """u.a.r. bad-ID placement (PoW-constrained adversary, Lemma 11)."""

    name = "uniform"

    def place_ids(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.random(count)


class ClusterAdversary(Adversary):
    """All bad IDs in the arc ``[start, start + width)`` (no-PoW attack)."""

    name = "cluster"

    def __init__(self, beta: float, start: float = 0.0, width: float = 0.05):
        super().__init__(beta)
        if not (0.0 < width <= 1.0):
            raise ValueError("width must be in (0, 1]")
        self.start = float(start) % 1.0
        self.width = float(width)

    def place_ids(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return np.mod(self.start + self.width * rng.random(count), 1.0)


class OmissionAdversary(Adversary):
    """Fields only the u.a.r. IDs that fall inside ``[start, start+width)``.

    The adversary's IDs are still uniform *conditioned on the arc* and drawn
    from a larger u.a.r. pool — the precise hypothesis of Lemma 5 — so the
    system keeps P1-P4 even though the adversary concentrates its presence.
    """

    name = "omission"

    def __init__(self, beta: float, start: float = 0.0, width: float = 0.25):
        super().__init__(beta)
        self.start = float(start) % 1.0
        self.width = float(width)

    def place_ids(self, count: int, rng: np.random.Generator) -> np.ndarray:
        draws = rng.random(count)
        lo, w = self.start, self.width
        inside = np.mod(draws - lo, 1.0) < w
        return draws[inside]


class KeyTargetAdversary(Adversary):
    """Concentrates bad IDs just counter-clockwise of a victim key so they
    become the successors of the key's membership points."""

    name = "key-target"

    def __init__(self, beta: float, key: float, spread: float = 1e-3):
        super().__init__(beta)
        self.key = float(key) % 1.0
        self.spread = float(spread)

    def place_ids(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return np.mod(self.key - self.spread * rng.random(count), 1.0)
