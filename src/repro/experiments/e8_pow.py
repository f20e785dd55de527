"""E8 — Lemma 11: PoW bounds the adversary to ``(1+eps) beta n`` u.a.r. IDs.

Three measurements on the puzzle scheme:

1. **count bound** — Monte-Carlo the adversary's solution count over its
   1.5-epoch window against the ``3 (1+eps) beta n / 2``-per-window budget
   (the §IV-A banking analysis; the ``beta -> beta/3`` revision absorbs it);
2. **placement uniformity** — KS-test the two-hash adversary IDs against
   Uniform[0,1): grinding nonces cannot bias ``f(g(.))``;
3. **one-hash ablation** — with IDs equal to nonces, the adversary confines
   its IDs to a chosen arc (here 5% of the ring): KS rejects uniformity and
   the arc concentration hits ~100%, versus ~5% under two hashes — the
   attack the composed scheme exists to stop.

Declared as a single-cell :class:`~repro.sim.sweep.SweepSpec`: the window
Monte-Carlo runs on the batched ``mint_count_windows`` kernel (one array
draw for the whole trial loop; the dynamic differential suite pins it
draw-for-draw against a per-window loop).  The KS inputs come from the
``uniformity_windows`` generator (each window is already one array draw;
the generator is differential-tested against the sequential
``mint_fast``/``mint_fast_one_hash`` oracle pair).
"""

from __future__ import annotations

import numpy as np

from ..analysis.stats import ks_uniform
from ..idspace.hashing import OracleSuite
from ..pow.puzzles import PuzzleScheme
from ..sim.montecarlo import aggregate_trials
from ..sim.sweep import CellOut, SweepSpec

__all__ = ["build_spec"]


def _cell(
    rng: np.random.Generator, *, n: int, beta: float, epoch_length: int,
    trials: int, arc: tuple[float, float], seed: int,
):
    suite = OracleSuite(seed=seed)
    scheme = PuzzleScheme(suite, epoch_length=epoch_length)
    window_steps = 1.5 * epoch_length / 2.0
    power = beta * n

    counts = scheme.mint_count_windows(power, window_steps, rng, trials)
    mc = aggregate_trials(counts)
    budget = 1.5 * beta * n  # (window/T2) * beta * n solutions expected
    eps_bound = 1.10 * budget  # (1 + eps) slack, eps = 0.10

    # each KS-input window is already one array draw; the generator is
    # pinned against the sequential mint_fast/mint_fast_one_hash oracle
    # pair by the differential suite
    two_hash_ids, one_hash_ids = scheme.uniformity_windows(
        power, 40 * window_steps, rng, arc_start=arc[0], arc_width=arc[1]
    )
    ks_two = ks_uniform(two_hash_ids)
    ks_one = ks_uniform(one_hash_ids)

    def in_arc(ids: np.ndarray) -> float:
        return float(np.mean(np.mod(ids - arc[0], 1.0) < arc[1])) if ids.size else 0.0

    rows = [
        [
            "adversary IDs per window (mean)", f"{mc.mean:.0f}",
            f"<= (1+eps)*1.5*beta*n = {eps_bound:.0f}",
            "ok" if mc.hi <= eps_bound else "FAIL",
        ],
        ["95% CI", f"[{mc.lo:.0f}, {mc.hi:.0f}]", f"E = {budget:.0f}", "-"],
        [
            "two-hash KS p-value", f"{ks_two.p_value:.3f}", ">= 0.01 (uniform)",
            "ok" if ks_two.looks_uniform() else "FAIL",
        ],
        [
            "two-hash IDs in 5% target arc", f"{in_arc(two_hash_ids):.3f}",
            "~0.05 (cannot aim)", "ok" if in_arc(two_hash_ids) < 0.15 else "FAIL",
        ],
        [
            "one-hash KS p-value", f"{ks_one.p_value:.2e}", "< 0.01 (clustered)",
            "ok" if not ks_one.looks_uniform() else "FAIL",
        ],
        [
            "one-hash IDs in 5% target arc", f"{in_arc(one_hash_ids):.3f}",
            "~1.0 (fully aimed)", "ok" if in_arc(one_hash_ids) > 0.9 else "FAIL",
        ],
    ]
    return CellOut(
        rows=rows,
        notes=(
            "one-hash ablation = §IV-A 'Why Use Two Hash Functions?': grinding "
            "inputs aims IDs; composing f(g(.)) destroys the aim",
        ),
    )


def build_spec(
    seed: int = 0,
    fast: bool = True,
    n: int = 4096,
    beta: float = 0.10,
    epoch_length: int = 4096,
    trials: int | None = None,
    arc: tuple[float, float] = (0.2, 0.05),
) -> SweepSpec:
    trials = trials or (20 if fast else 100)
    return SweepSpec(
        experiment="E8",
        title=f"PoW identity bounds (beta={beta}, n={n}, T={epoch_length})",
        headers=["quantity", "measured", "bound/prediction", "within"],
        cell=_cell,
        context=dict(
            n=n, beta=beta, epoch_length=epoch_length, trials=trials,
            arc=tuple(arc), seed=seed,
        ),
        seed=seed,
    )
