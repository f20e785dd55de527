"""E10 — §IV-B: the pre-computation attack and the fresh-string defense.

Sweep the adversary's hoarding horizon: without epoch strings, every banked
solution stays valid and the adversary's ID fraction at attack time grows
toward 1 (system-wide majority loss once the hoard exceeds the good
population).  With strings, solutions expire with their signing string and
the usable hoard is pinned at the 1.5-epoch window, keeping the fraction at
the ``~3 beta / (1 + 2 beta)``-ish level the ``beta/3`` revision absorbs.

Declared as a single-cell :class:`~repro.sim.sweep.SweepSpec` (the horizon
sweep shares one puzzle scheme and is cheap; the defense/no-defense rows
are a paired contrast on one stream).
"""

from __future__ import annotations

import numpy as np

from ..idspace.hashing import OracleSuite
from ..pow.precompute import simulate_precompute_attack
from ..pow.puzzles import PuzzleScheme
from ..sim.sweep import CellOut, SweepSpec

__all__ = ["build_spec"]


def _cell(
    rng: np.random.Generator, *, n: int, beta: float, epoch_length: int,
    horizons: tuple[int, ...], seed: int,
):
    suite = OracleSuite(seed=seed)
    scheme = PuzzleScheme(suite, epoch_length=epoch_length)
    rows = []
    for hoard in horizons:
        for with_strings in (False, True):
            out = simulate_precompute_attack(
                scheme, n, beta, hoard, with_strings, rng
            )
            rows.append([
                hoard,
                "fresh strings" if with_strings else "none",
                out.usable_bad_ids,
                f"{out.bad_fraction_at_attack:.3f}",
                "YES" if out.majority_lost else "no",
            ])
    return CellOut(
        rows=rows,
        notes=(
            "without strings the hoard grows linearly in epochs and crosses "
            "majority at ~(1-beta)/(2 beta) epochs; with strings it is capped "
            "at the 1.5-epoch window regardless of patience",
        ),
    )


def build_spec(
    seed: int = 0,
    fast: bool = True,
    n: int = 4096,
    beta: float = 0.10,
    epoch_length: int = 4096,
    horizons: tuple[int, ...] = (1, 2, 5, 10, 20, 50),
) -> SweepSpec:
    return SweepSpec(
        experiment="E10",
        title=f"Pre-computation attack (n={n}, beta={beta})",
        headers=[
            "hoard epochs", "defense", "usable bad IDs",
            "bad fraction at attack", "majority lost",
        ],
        cell=_cell,
        context=dict(
            n=n, beta=beta, epoch_length=epoch_length,
            horizons=tuple(horizons), seed=seed,
        ),
        seed=seed,
    )
