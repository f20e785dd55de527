"""System parameters (paper §I-C, §II, §III, §IV).

:class:`SystemParams` gathers every constant the paper introduces, with the
derived quantities (group sizes, red-group probability target, epoch length)
computed in one place so that the core protocol, baselines, experiments, and
theory predictions all agree on them.

Parameter map (paper symbol -> field):

===========  =======================  =====================================
Symbol        Field                    Meaning
===========  =======================  =====================================
``n``         ``n``                    number of IDs in the system
``beta``      ``beta``                 adversary's fraction of compute power
``delta``     ``delta``                slack on a good group's bad fraction
``d1``        ``d1``                   min group size multiplier (x ln ln n)
``d2``        ``d2``                   solicited group size multiplier
``k``         ``k``                    target ``p_f <= 1 / ln^k n``
``T``         ``epoch_length``         steps per epoch (§III)
``eps'``      (derived)                ``1 - 2 (1+delta) beta`` churn slack
``c``         ``congestion_c``         congestion exponent of the input graph
``gamma``     ``gamma``                neighbor-set exponent ``|L_w|``
===========  =======================  =====================================

Choice of defaults
------------------
The paper's theorems hold "for sufficiently large n" with untuned constants.
A simulation has to pick concrete values; we pick them so the *shape* of each
claim is visible at laptop scale (n up to ~2^14):

* ``beta = 0.05`` — "sufficiently small positive constant" (§I-C footnote 8).
* ``delta`` defaults so that the bad-member threshold ``(1+delta)*beta`` is
  1/3: a group stays useful for majority filtering as long as bad members
  are a minority, and 1/3 leaves the paper's ``eps' = 1 - 2(1+delta)beta``
  churn slack positive (= 1/3).
* ``d2 = 8, d1 = 2`` — solicited membership ``d2 ln ln n`` gives ~15 members
  at n = 4096; the Chernoff tail P[Bin(m, beta) > m/3] is then ~1e-3,
  i.e. ``p_f ~ 1/ln^3 n``, matching ``k = 3``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

__all__ = ["SystemParams", "DEFAULTS"]


@dataclass(frozen=True)
class SystemParams:
    """Immutable bundle of system constants with derived helpers."""

    n: int = 1024
    beta: float = 0.05
    delta: Optional[float] = None  # default: chosen so (1+delta)*beta == 1/3
    d1: float = 2.0
    d2: float = 8.0
    k: float = 3.0
    epoch_length: int = 4096  # T
    congestion_c: float = 1.0  # exponent c in C = O(log^c n / n)
    gamma: float = 1.0  # exponent gamma in |L_w| = O(log^gamma n)
    seed: int = 0

    def __post_init__(self):
        if self.n < 8:
            raise ValueError("n must be at least 8")
        if not (0.0 < self.beta < 0.5):
            raise ValueError("beta must be in (0, 1/2)")
        if self.delta is None:
            object.__setattr__(self, "delta", (1.0 / 3.0) / self.beta - 1.0)
        if self.bad_member_threshold >= 0.5:
            raise ValueError(
                "(1+delta)*beta must stay below 1/2 or groups cannot "
                "majority-filter"
            )
        if self.d1 > self.d2:
            raise ValueError("d1 must not exceed d2")
        if self.epoch_length < 2:
            raise ValueError("epoch_length must be >= 2")

    # -- derived scale quantities ------------------------------------------------

    @property
    def ln_n(self) -> float:
        return math.log(self.n)

    @property
    def ln_ln_n(self) -> float:
        """``ln ln n``, floored at 1 so tiny test systems stay well-defined."""
        return max(1.0, math.log(max(math.e, math.log(self.n))))

    @property
    def group_solicit_size(self) -> int:
        """Number of membership points ``d2 ln ln n`` solicited per group."""
        return max(3, round(self.d2 * self.ln_ln_n))

    @property
    def group_min_size(self) -> int:
        """Minimum distinct members ``d1 ln ln n`` for a group to be good."""
        return max(2, round(self.d1 * self.ln_ln_n))

    @property
    def logn_group_size(self) -> int:
        """Baseline ``Theta(log n)`` group size (classic constructions)."""
        return max(4, round(self.d2 * self.ln_n / 2.0))

    @property
    def bad_member_threshold(self) -> float:
        """Max tolerable bad fraction ``(1 + delta) * beta`` in a good group."""
        return (1.0 + self.delta) * self.beta

    @property
    def churn_slack(self) -> float:
        """``eps' = 1 - 2 (1+delta) beta`` (§III): per-epoch good-departure
        budget is ``eps'/2`` of each group."""
        return 1.0 - 2.0 * self.bad_member_threshold

    @property
    def pf_target(self) -> float:
        """Target red-group probability ``1 / ln^k n`` (S2, §II-A)."""
        return 1.0 / (self.ln_n**self.k)

    @property
    def neighbor_set_bound(self) -> int:
        """``|L_w| = O(log^gamma n)`` bound (P3)."""
        return max(4, math.ceil(2.0 * self.ln_n**self.gamma))

    def effective_beta(self) -> float:
        """The §IV-A ``beta -> beta/3`` revision.

        The adversary can bank puzzle solutions over a 1.5-epoch window
        (last half of the previous epoch plus the current epoch), so the
        analysis budgets it ``3 (1+eps) beta n`` IDs; running the protocol
        with ``beta/3`` restores the Section II/III guarantees.
        """
        return self.beta / 3.0

    # -- convenience --------------------------------------------------------------

    def with_(self, **kwargs) -> "SystemParams":
        """A copy with the given fields replaced."""
        if "delta" not in kwargs and "beta" in kwargs:
            # keep the (1+delta)beta = 1/3 default coupled to beta
            kwargs.setdefault("delta", None)
        return replace(self, **kwargs)

    def describe(self) -> str:
        """Human-readable parameter dump used by example scripts."""
        return (
            f"SystemParams(n={self.n}, beta={self.beta:.3f}, "
            f"|G| solicit={self.group_solicit_size} (min {self.group_min_size}), "
            f"bad-threshold={self.bad_member_threshold:.3f}, "
            f"p_f target={self.pf_target:.2e}, T={self.epoch_length})"
        )


DEFAULTS = SystemParams()
