"""Global random strings: generation, bins, solution sets (paper App. VIII).

Each epoch every good ID grinds candidate strings ``s`` and scores them by
``h(s XOR r_{i-1})``; the network gossips the record-small outputs and each
ID assembles a **solution set** ``R_w`` of the ``Theta(ln n)`` smallest.  An
ID for the next epoch is signed with the miner's chosen ``s*``; verification
succeeds iff the signer's string is in the verifier's solution set — so the
protocol only needs (Lemma 12): *everyone's chosen string lands in everyone's
solution set*, and sets stay ``O(ln n)`` small.

The **bins/counters** device bounds forwarding: bin ``B_j = [2^-j, 2^-(j-1))``
has a counter; an ID forwards a string scoring in ``B_j`` only while fewer
than ``c0 ln n`` record-breakers for that bin have passed through — once a
bin saturates, smaller-bin strings must exist w.h.p., so its traffic is cut
off.  This caps per-ID forwarding at ``O(ln n * ln(nT))`` messages, giving
Lemma 12's ``~O(n ln T)`` total.

This module holds the data structures and sampling; ``propagation.py`` runs
the three-phase gossip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "StringCandidate",
    "BinTable",
    "solution_set",
    "sample_honest_minimum",
    "sample_adversary_outputs",
]


@dataclass(frozen=True, order=True)
class StringCandidate:
    """A random string in flight, ordered by its hash output."""

    output: float        # h(s XOR r_{i-1}) — the score; smaller is better
    origin: int          # ring index of the generating ID (or -1: adversary)
    payload: int         # the string s itself (opaque token)


class BinTable:
    """Per-ID bins ``B_j = [2^-j, 2^-(j-1))`` with forwarding counters.

    ``should_forward(output)`` implements the record-breaking rule: forward
    iff the output beats the best seen in its bin *and* the bin's counter is
    below ``c0 ln n``; each forward increments the counter.
    """

    def __init__(self, n: int, epoch_length: int, c0: float = 4.0, b: float = 1.5):
        self.n_bins = max(4, int(math.ceil(b * math.log(max(2, n * epoch_length)))))
        self.c0_ln_n = max(2, int(math.ceil(c0 * math.log(max(2, n)))))
        self.counters = np.zeros(self.n_bins, dtype=np.int64)
        self.best = np.ones(self.n_bins, dtype=np.float64)  # best (smallest) seen

    def bin_of(self, output: float) -> int:
        """Index j of the bin containing ``output`` (clamped to the table).

        ``B_j = [2^-j, 2^-(j-1))``, so ``j = ceil(-log2(output))`` — ceil,
        not floor+1, so exact powers of two (0.5, 0.25, ...) land at the
        *bottom* of their bin per the half-open interval definition.
        """
        if output <= 0.0:
            return self.n_bins - 1
        j = max(1, int(math.ceil(-math.log2(output))))
        return min(j, self.n_bins) - 1

    def should_forward(self, output: float) -> bool:
        j = self.bin_of(output)
        if output >= self.best[j] or self.counters[j] >= self.c0_ln_n:
            return False
        self.best[j] = output
        self.counters[j] += 1
        return True


def solution_set(
    seen: list[StringCandidate], n: int, d0: float = 2.0
) -> list[StringCandidate]:
    """Assemble ``R_w``: walk bins from the smallest-output end and collect
    ``d0 ln n`` strings (App. VIII Phase 3 rule)."""
    budget = max(2, int(math.ceil(d0 * math.log(max(2, n)))))
    return sorted(set(seen))[:budget]


def sample_honest_minimum(
    trials: int, rng: np.random.Generator, size: int | None = None
) -> np.ndarray | float:
    """Minimum output of ``trials`` uniform draws (one honest ID's Phase-1
    work), sampled exactly via the Beta(1, M) law of the first order
    statistic — no need to materialize the trial stream."""
    if size is None:
        return float(rng.beta(1, max(1, trials)))
    return rng.beta(1, max(1, trials), size=size)


def sample_adversary_outputs(
    total_trials: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    """The ``count`` smallest outputs among ``total_trials`` uniform draws.

    Exact via the Rényi representation: the i-th order statistic of M
    uniforms equals the normalized cumulative sum of exponentials.  This is
    the adversary's arsenal of abnormally small strings for the
    delayed-release attack (it computed ``beta n T`` trials in total).
    """
    M = max(1.0, float(total_trials))
    gaps = rng.exponential(size=count)
    arrivals = np.cumsum(gaps)
    return arrivals / (M + 1.0)
