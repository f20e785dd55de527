"""E7 — Lemma 10: per-ID state stays ``O(poly(log log n))``.

Two measurements on a dynamic run:

1. **membership distribution** — how many groups each good pool ID was
   accepted into during a new-graph construction; Lemma 10: expectation
   ``O(log log n)`` (the solicit count), with the verification rule keeping
   the tail tight;
2. **membership-spam attack** — the adversary sends fake membership
   requests (not derived from any real oracle point) to good IDs; a good ID
   erroneously accepts only when *both* its verification searches fail
   (``~q_f^2``), so even ``n`` spam requests per epoch yield ``O(1)``
   erroneous accepts in expectation.

Declared as a single-cell :class:`~repro.sim.sweep.SweepSpec` (the spam
attack reuses the epoch trajectory's final pair, so the body is one
sequential unit).
"""

from __future__ import annotations

import numpy as np

from ..churn import UniformChurn
from ..core.dynamic import EpochSimulator
from ..core.group_graph import GroupGraph
from ..core.params import SystemParams
from ..sim.sweep import CellOut, SweepSpec

__all__ = ["build_spec"]


def _cell(
    rng: np.random.Generator, *, n: int, beta: float, epochs: int,
    spam_per_good_id: int, seed: int,
):
    params = SystemParams(n=n, beta=beta, seed=seed)
    sim = EpochSimulator(
        params, churn=UniformChurn(rate=0.05), probes=2000, rng=rng
    )
    reports = sim.run(epochs)
    last = reports[-1]
    # membership_counts indexes the previous epoch's member pool
    counts = last.build_1.membership_counts
    mean_m = float(counts.mean())
    p99 = float(np.quantile(counts, 0.99))
    mx = int(counts.max())

    # --- spam attack: fake membership requests verified by dual searches ----
    pair = sim.pair
    spam = spam_per_good_id * int((~pair.bad_mask).sum())
    src = rng.integers(0, pair.n, size=spam)
    pts = rng.random(spam)
    gg1 = GroupGraph(pair.H, params, red=pair.red1)
    gg2 = GroupGraph(pair.H, params, red=pair.red2)
    ev1 = gg1.evaluate(pair.H.route_many(src, pts))
    ev2 = gg2.evaluate(pair.H.route_many(src, pts))
    # erroneously accepted iff both verification searches failed
    accepted = (~ev1.delivered) & (~ev2.delivered)
    per_good = accepted.sum() / max(1, (~pair.bad_mask).sum())

    rows = []
    bound_mean = 2.0 * params.group_solicit_size
    rows.append([
        "mean memberships/good ID", f"{mean_m:.2f}",
        f"O(log log n) ~ {params.group_solicit_size}",
        "ok" if mean_m <= bound_mean else "FAIL",
    ])
    rows.append(["p99 memberships", f"{p99:.1f}", "tight tail", "-"])
    # the busiest ID owns a Theta(log n / n) arc and is solicited for each
    # of the m = d2 ln ln n points landing in it: max ~ O(log n * log log n)
    max_bound = 2.5 * params.group_solicit_size * params.ln_n
    rows.append([
        "max memberships", mx,
        f"<= O(log n loglog n) ~ {max_bound:.0f}",
        "ok" if mx <= max_bound else "FAIL",
    ])
    qf1 = last.qf_1
    pred_err = spam * max(qf1, 1e-6) ** 2 / max(1, (~pair.bad_mask).sum())
    rows.append([
        f"spam accepts/good ID ({spam} reqs)", f"{per_good:.4f}",
        f"~ spam * q_f^2 / good = {pred_err:.4f}",
        "ok" if per_good <= max(4 * pred_err, 0.05) else "FAIL",
    ])
    return CellOut(
        rows=rows,
        notes=(
            "erroneous accepts need a dual verification failure: the state-"
            "exhaustion attack of §III-A is quadratically damped",
        ),
    )


def build_spec(
    seed: int = 0,
    fast: bool = True,
    n: int | None = None,
    beta: float = 0.10,
    epochs: int = 3,
    spam_per_good_id: int = 4,
) -> SweepSpec:
    n = n or (512 if fast else 2048)
    return SweepSpec(
        experiment="E7",
        title=f"Lemma 10 state costs (n={n}, beta={beta})",
        headers=["quantity", "measured", "bound/prediction", "within"],
        cell=_cell,
        context=dict(
            n=n, beta=beta, epochs=epochs,
            spam_per_good_id=spam_per_good_id, seed=seed,
        ),
        seed=seed,
    )
