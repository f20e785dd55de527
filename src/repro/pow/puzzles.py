"""Proof-of-work ID generation (paper §IV-A).

To mint an ID for epoch ``i+1``, a participant holding the globally-known
random string ``r_{i-1}`` searches for a nonce ``sigma`` with

    ``g(sigma XOR r_{i-1}) <= tau``;       the ID is ``f(g(sigma XOR r_{i-1}))``.

``tau`` is tuned so an honest unit of compute needs ``(1 ± eps) T/2`` steps
per solution; an adversary holding a ``beta`` fraction of total compute
therefore mints at most ``(1+eps) beta n`` IDs per window (Lemma 11), and —
because the ID is ``f`` *of the puzzle output*, not the nonce — those IDs
are u.a.r. on the ring no matter how the adversary grinds ``sigma``.

Two execution modes, cross-checked in the tests:

* ``mint_oracle`` — literal trial loop through the BLAKE2b oracles; every
  solution carries its (private) nonce and is verifiable by third parties;
* ``mint_fast`` — the exact sampling shortcut: the number of solutions in
  ``M`` trials is ``Binomial(M, tau)`` and each ID is an independent uniform
  (random-oracle outputs).  This is what large-``n`` experiments use.

The **one-hash ablation** (``mint_fast_one_hash``) drops the ``f``
composition: a valid ID is the nonce itself.  The adversary then grinds
nonces inside a chosen arc and its IDs cluster — the §IV-A attack the
composition exists to stop; experiment E8 shows the distributional split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..idspace.hashing import OracleSuite

__all__ = ["PuzzleScheme", "Solution"]


@dataclass(frozen=True)
class Solution:
    """One puzzle solution: the minted ID plus verification material.

    ``nonce`` is the private ``sigma`` — the object the zero-knowledge
    scheme of §IV-A protects.  It is stored on the dataclass for simulation
    bookkeeping but protocol code must only pass :class:`Solution` through
    :meth:`PuzzleScheme.verify`, which never reveals it (the simulation's
    stand-in for the zero-knowledge proof of [25]).
    """

    id_value: float
    nonce: int
    r_string: int
    epoch: int


class PuzzleScheme:
    """The two-hash puzzle scheme with threshold ``tau``.

    Parameters
    ----------
    suite:
        Shared oracle suite (provides ``f`` and ``g``).
    epoch_length:
        ``T`` — steps per epoch; honest solving time target is ``T/2``.
    hash_rate:
        Trials per step per unit of compute (scale-free; default 1).
    """

    def __init__(self, suite: OracleSuite, epoch_length: int, hash_rate: float = 1.0):
        if epoch_length < 2:
            raise ValueError("epoch_length must be >= 2")
        self.suite = suite
        self.T = int(epoch_length)
        self.hash_rate = float(hash_rate)
        #: success probability per trial: E[trials] = T/2 * rate  =>  tau
        self.tau = min(1.0, 2.0 / (self.T * self.hash_rate))

    # -- oracle-mode (verifiable) -------------------------------------------------

    def _g_of(self, nonce: int, r_string: int) -> float:
        return self.suite.g(nonce ^ r_string)

    def _id_of(self, g_value: float) -> float:
        return self.suite.f(g_value)

    def mint_oracle(
        self,
        r_string: int,
        trials: int,
        rng: np.random.Generator,
        epoch: int = 0,
        max_solutions: int | None = None,
    ) -> list[Solution]:
        """Literal trial loop: draw nonces, test ``g``, apply ``f``.

        Only for small budgets (tests, examples): each trial is two oracle
        calls.
        """
        out: list[Solution] = []
        for _ in range(int(trials)):
            nonce = int(rng.integers(0, 2**63))
            gv = self._g_of(nonce, r_string)
            if gv <= self.tau:
                out.append(
                    Solution(
                        id_value=self._id_of(gv),
                        nonce=nonce,
                        r_string=r_string,
                        epoch=epoch,
                    )
                )
                if max_solutions is not None and len(out) >= max_solutions:
                    break
        return out

    def verify(self, claimed_id: float, solution: Solution, r_string: int) -> bool:
        """Verify a claimed ID against a solution *without leaking the nonce*.

        In the paper this is a ZK proof of the hash pre-image [25]; here the
        check runs inside the scheme so callers never see ``solution.nonce``
        (the simulation-level equivalent of "prove validity without
        revealing sigma").  Verification fails for stale strings — that is
        the expiry mechanism: IDs signed with an old ``r`` die with it.
        """
        if solution.r_string != r_string:
            return False  # expired: signed under a stale global string
        gv = self._g_of(solution.nonce, r_string)
        return gv <= self.tau and self._id_of(gv) == claimed_id

    # -- fast mode (distribution-exact sampling) -----------------------------------

    def expected_solutions(self, compute_units: float, steps: float) -> float:
        """``E[solutions] = units * steps * rate * tau``."""
        return compute_units * steps * self.hash_rate * self.tau

    def mint_fast(
        self, compute_units: float, steps: float, rng: np.random.Generator
    ) -> np.ndarray:
        """IDs minted by ``compute_units`` of honest-speed compute over
        ``steps`` steps: ``Binomial(M, tau)`` solutions, u.a.r. IDs."""
        trials = int(round(compute_units * steps * self.hash_rate))
        count = int(rng.binomial(trials, self.tau)) if trials > 0 else 0
        return rng.random(count)

    def mint_fast_count(
        self, compute_units: float, steps: float, rng: np.random.Generator
    ) -> int:
        """Solution *count* of one :meth:`mint_fast` window: the single
        ``Binomial(M, tau)`` draw, without materializing the per-solution
        uniform IDs.  This is the per-window serial reference the batched
        :meth:`mint_count_windows` kernel is differential-tested against."""
        trials = int(round(compute_units * steps * self.hash_rate))
        return int(rng.binomial(trials, self.tau)) if trials > 0 else 0

    def mint_count_windows(
        self,
        compute_units: float,
        steps: float,
        rng: np.random.Generator,
        windows: int,
    ) -> np.ndarray:
        """Solution counts of ``windows`` independent minting windows, drawn
        as one array operation.

        NumPy's ``Generator`` fills distribution arrays by consuming the
        bit stream sequentially, so ``binomial(M, tau, size=w)`` equals
        ``w`` successive :meth:`mint_fast_count` calls on the same
        generator draw-for-draw — the "unchanged RNG draw order" contract
        the differential suite pins.  This is E8's vectorized kernel: the
        whole adversary-window Monte-Carlo collapses into one call.
        """
        if windows <= 0:
            return np.empty(0, dtype=np.int64)
        trials = int(round(compute_units * steps * self.hash_rate))
        if trials <= 0:
            return np.zeros(windows, dtype=np.int64)
        return rng.binomial(trials, self.tau, size=windows).astype(np.int64)

    def uniformity_windows(
        self,
        compute_units: float,
        steps: float,
        rng: np.random.Generator,
        arc_start: float = 0.0,
        arc_width: float = 1.0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Both KS-test input windows (two-hash IDs, one-hash IDs) from one
        call.

        Each window is already a single array draw; this generator fixes
        the canonical draw order — a :meth:`mint_fast` window followed by
        a :meth:`mint_fast_one_hash` window on the same generator — so it
        and the two sequential oracle calls are interchangeable
        bit-for-bit (pinned by the differential suite).  E8's uniformity
        rows consume this on every kernel.
        """
        two_hash = self.mint_fast(compute_units, steps, rng)
        one_hash = self.mint_fast_one_hash(
            compute_units, steps, rng, arc_start=arc_start, arc_width=arc_width
        )
        return two_hash, one_hash

    def mint_fast_one_hash(
        self,
        compute_units: float,
        steps: float,
        rng: np.random.Generator,
        arc_start: float = 0.0,
        arc_width: float = 1.0,
    ) -> np.ndarray:
        """One-hash ablation: the ID *is* the nonce, so the adversary grinds
        nonces in ``[arc_start, arc_start + arc_width)`` and every solution
        lands there.  Success rate per trial is unchanged (``g`` is still a
        random oracle over the XORed input)."""
        trials = int(round(compute_units * steps * self.hash_rate))
        count = int(rng.binomial(trials, self.tau)) if trials > 0 else 0
        return np.mod(arc_start + arc_width * rng.random(count), 1.0)

    def honest_window_ids(
        self, n_good: int, rng: np.random.Generator
    ) -> np.ndarray:
        """One epoch of honest minting: each good unit solves ~once per
        ``T/2`` window; model exactly one ID per good participant (the
        paper's population model) with u.a.r. value."""
        return rng.random(n_good)
