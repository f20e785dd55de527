"""E11 — §I-D "Can we do better?": the group-size lower-bound intuition.

Two views of the same knee:

1. **theory curve** — for each ``n``, the minimal group size whose bad-group
   probability meets ``1/ln^k n`` (tiny regime) vs ``1/n^2`` (classic
   regime): the first grows like ``log log n``, the second like ``log n``;
2. **measured knee** — at fixed ``n``, sweep the actual group size and
   measure the end-to-end search failure rate on a constructively-built
   group graph.  The §I-D union bound says failure stays ``< 1`` only while
   ``p_f(size) * D < 1``; below ``~log log n`` sizes the failure rate
   collapses toward 1, above it it vanishes — the knee that makes
   ``Theta(log log n)`` "the limit of what is possible".

Declared as a single-cell :class:`~repro.sim.sweep.SweepSpec` (the theory
rows are free; the measured sizes share one adversary population so the
knee is read off a fixed instance).
"""

from __future__ import annotations

import numpy as np

from ..adversary import UniformAdversary
from ..analysis.theory import (
    bad_group_probability,
    group_size_for_target,
    union_bound_failure,
)
from ..core.params import SystemParams
from ..core.static_case import constructive_static_graph, measure_static_search
from ..idspace.ring import Ring
from ..inputgraph import make_input_graph
from ..sim.sweep import CellOut, SweepSpec

__all__ = ["build_spec"]


def _cell(
    rng: np.random.Generator, *, beta: float, n_theory: tuple[int, ...],
    n_measured: int, sizes: tuple[int, ...], probes: int, seed: int,
):
    rows = []
    # --- theory curve ----------------------------------------------------------
    params0 = SystemParams(n=n_measured, beta=beta, seed=seed)
    thr = params0.bad_member_threshold
    for n in n_theory:
        ln_n = np.log(n)
        s_tiny = group_size_for_target(n, beta, thr, 1.0 / ln_n**3)
        s_classic = group_size_for_target(n, beta, thr, 1.0 / float(n) ** 2)
        rows.append(["theory: 1/ln^3 n target", n, s_tiny,
                     f"{bad_group_probability(s_tiny, beta, thr):.1e}", "-", "-"])
        rows.append(["theory: 1/n^2 target", n, s_classic,
                     f"{bad_group_probability(s_classic, beta, thr):.1e}", "-", "-"])
    # --- measured knee ------------------------------------------------------------
    adv = UniformAdversary(beta)
    ids, bad = adv.population(n_measured, rng)
    ring = Ring(ids)
    H = make_input_graph("chord", ring)
    D = 0.5 * np.log2(n_measured)  # Chord's expected hop count
    for s in sizes:
        params = SystemParams(
            n=n_measured, beta=beta, d1=max(0.5, s / (2 * params0.ln_ln_n)),
            d2=s / params0.ln_ln_n, seed=seed,
        )
        gg, gs, q = constructive_static_graph(H, params, bad, rng=rng)
        stats = measure_static_search(gg, probes, rng)
        pf = bad_group_probability(s, beta, thr)
        rows.append([
            "measured", n_measured, s, f"{pf:.3f}",
            f"{union_bound_failure(pf, D):.2f}", f"{stats.failure_rate:.3f}",
        ])
    lnln = params0.ln_ln_n
    return CellOut(
        rows=rows,
        notes=(
            f"ln ln n at n={n_measured} is {lnln:.1f}; the failure knee should "
            f"sit near d*ln ln n with small d — sizes below it fail most "
            f"searches, a few multiples above it fail almost none",
            "small-size rows are non-monotone: the (1+delta)beta cutoff rounds "
            "to an integer bad-member budget, producing the binomial sawtooth",
        ),
    )


def build_spec(
    seed: int = 0,
    fast: bool = True,
    beta: float = 0.12,
    n_theory: tuple[int, ...] = (2**8, 2**10, 2**12, 2**16, 2**20, 2**30),
    n_measured: int | None = None,
    sizes: tuple[int, ...] = (2, 3, 4, 6, 8, 12, 16, 24),
    probes: int | None = None,
) -> SweepSpec:
    n_measured = n_measured or (1024 if fast else 4096)
    probes = probes or (8000 if fast else 40_000)
    return SweepSpec(
        experiment="E11",
        title=f"Group-size limits (beta={beta})",
        headers=["view", "n", "group size", "p_f(size)", "D*p_f", "failure rate"],
        cell=_cell,
        context=dict(
            beta=beta, n_theory=tuple(n_theory), n_measured=n_measured,
            sizes=tuple(sizes), probes=probes, seed=seed,
        ),
        seed=seed,
    )
