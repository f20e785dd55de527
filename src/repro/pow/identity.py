"""Identity lifecycle: mint, verify, expire (paper §I-C, §IV-A).

The construction guarantees three ID properties (assumed in §§II-III,
enforced here):

1. **IDs expire** — an ID is signed by the epoch's global random string;
   when the next string is adopted, verification against it fails and good
   IDs ignore the holder ("w's ID will have expired");
2. **claims are verifiable** — any good ID can check a claimed ID without
   learning the nonce (ZK substitution; see ``puzzles.PuzzleScheme.verify``);
3. **the adversary holds at most ~beta n u.a.r. IDs** — Lemma 11, enforced
   by the compute budget and the two-hash composition.

:class:`IdentityRegistry` is the bookkeeping layer for those properties:
it mints per-epoch populations (honest + adversarial), answers
verification queries, and retires expired IDs.  Nothing in ``src/``
drives it — the dynamic protocol draws its populations from
``repro.adversary`` and E8 counts mints with
:meth:`~repro.pow.puzzles.PuzzleScheme.mint_count_windows` — so the PoW
tests are its callers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .puzzles import PuzzleScheme, Solution

__all__ = ["IdentityCard", "IdentityRegistry", "MintStats"]


@dataclass(frozen=True)
class IdentityCard:
    """A participant's claim to an ID for one epoch."""

    id_value: float
    epoch: int
    is_bad: bool
    _solution: Solution  # private verification material (never read directly)

    def verify_with(self, scheme: PuzzleScheme, r_string: int) -> bool:
        """Check validity for the epoch whose global string is ``r_string``."""
        return scheme.verify(self.id_value, self._solution, r_string)


@dataclass(frozen=True)
class MintStats:
    """Outcome of one epoch's minting window (Lemma 11 quantities)."""

    epoch: int
    n_good: int
    n_bad: int
    beta_realized: float
    bad_ids: np.ndarray
    good_ids: np.ndarray


class IdentityRegistry:
    """Mints and verifies per-epoch ID populations.

    ``beta`` is the adversary's compute fraction.  Per §IV-A the adversary's
    effective window is 1.5 epochs (it can start at the previous epoch's
    halfway point and compute through the current epoch), captured by
    ``adversary_window_epochs = 1.5``; the paper's ``beta -> beta/3``
    revision compensates (``SystemParams.effective_beta``).
    """

    def __init__(
        self,
        scheme: PuzzleScheme,
        n: int,
        beta: float,
        adversary_window_epochs: float = 1.5,
    ):
        self.scheme = scheme
        self.n = int(n)
        self.beta = float(beta)
        self.adversary_window = float(adversary_window_epochs)
        self._strings: dict[int, int] = {}

    def set_epoch_string(self, epoch: int, r_string: int) -> None:
        """Record the adopted global random string for ``epoch``."""
        self._strings[epoch] = int(r_string)

    def string_for(self, epoch: int) -> int:
        try:
            return self._strings[epoch]
        except KeyError:
            raise KeyError(f"no global string adopted for epoch {epoch}") from None

    def mint_epoch(
        self, epoch: int, rng: np.random.Generator, one_hash_attack: bool = False,
        attack_arc: tuple[float, float] = (0.0, 0.05),
    ) -> MintStats:
        """Mint the epoch's population.

        Good side: ``(1 - beta) n`` compute units, one ID each.  Adversary:
        ``beta n`` units over its 1.5-epoch window via ``mint_fast`` (u.a.r.
        IDs) or, under the one-hash ablation, ``mint_fast_one_hash``
        (clustered IDs).
        """
        n_good = self.n - int(round(self.beta * self.n))
        good_ids = self.scheme.honest_window_ids(n_good, rng)
        units = self.beta * self.n
        # budget: the adversary mints against the T/2 honest window scaled by
        # its 1.5-epoch head start => 1.5 * (T/2) steps of grinding
        steps = self.adversary_window * (self.scheme.T / 2.0)
        if one_hash_attack:
            bad_ids = self.scheme.mint_fast_one_hash(
                units, steps, rng, arc_start=attack_arc[0], arc_width=attack_arc[1]
            )
        else:
            bad_ids = self.scheme.mint_fast(units, steps, rng)
        return MintStats(
            epoch=epoch,
            n_good=n_good,
            n_bad=int(bad_ids.size),
            beta_realized=float(bad_ids.size / max(1, bad_ids.size + n_good)),
            bad_ids=bad_ids,
            good_ids=good_ids,
        )

    def mint_card(
        self, epoch: int, rng: np.random.Generator, is_bad: bool = False,
        max_trials: int | None = None,
    ) -> IdentityCard | None:
        """Mint one verifiable (oracle-mode) identity card, or ``None`` if
        the trial budget ran out before a solution was found."""
        r = self.string_for(epoch)
        trials = max_trials if max_trials is not None else 4 * self.scheme.T
        sols = self.scheme.mint_oracle(r, trials, rng, epoch=epoch, max_solutions=1)
        if not sols:
            return None
        sol = sols[0]
        return IdentityCard(
            id_value=sol.id_value, epoch=epoch, is_bad=is_bad, _solution=sol
        )

    def verify_card(self, card: IdentityCard, current_epoch: int) -> bool:
        """Epoch-scoped verification: valid iff signed by the *current*
        epoch's string (stale strings => expired, §IV-A)."""
        r = self._strings.get(current_epoch)
        if r is None:
            return False
        return card.verify_with(self.scheme, r)
