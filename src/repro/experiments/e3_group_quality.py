"""E3 — §I-C / Lemma 7 composition: bad-group probability vs group size.

Construct every group by hashing (the real §III-A membership rule) over an
adversary-placed population, classify, and compare the realized bad-group
fraction with the exact binomial tail and the Chernoff form the paper argues
with.  Swept over ``beta`` and the size multiplier ``d2``, the table shows
the exponential-in-size decay that lets ``Theta(log log n)`` groups reach
``p_f = 1/poly(log n)`` — and how the same target forces ``Theta(log n)``
when the bar is ``1/poly(n)`` (the classic regime).

Declared as a (beta x d2) :class:`~repro.sim.sweep.SweepSpec`: each cell
places its own adversarial population and builds one group construction
from its spawned stream, so all construction/classification work runs
cell-parallel under the process backend.

Each cell builds its n-group construction with the vectorized CSR kernel
by default (``pass_kernel``); the explicit ``serial`` backend runs the
per-leader reference loop — byte-identical CSR, hence identical tables.
"""

from __future__ import annotations

import numpy as np

from ..adversary import UniformAdversary
from ..analysis.tables import TableResult
from ..analysis.theory import bad_group_probability, chernoff_upper, group_size_for_target
from ..core.groups import build_groups_fast, classify_groups
from ..core.params import SystemParams
from ..idspace.ring import Ring
from ..sim.montecarlo import ExecutionConfig
from ..sim.sweep import SweepSpec, run_sweep

__all__ = ["run", "build_spec"]


def _cell(
    rng: np.random.Generator, *, beta: float, d2: float, n: int, seed: int,
    kernel: str = "vectorized",
):
    adv = UniformAdversary(beta)
    ids, bad = adv.population(n, rng)
    ring = Ring(ids)
    params = SystemParams(n=n, beta=beta, d1=d2 / 4.0, d2=d2, seed=seed)
    gs = build_groups_fast(ring, params, rng, kernel=kernel)
    q = classify_groups(gs, bad, params)
    m = params.group_solicit_size
    pred = bad_group_probability(m, beta, params.bad_member_threshold)
    cher = chernoff_upper(m, beta, params.bad_member_threshold)
    # measured should track the exact tail; allow sampling noise floor
    ok = q.bad_group_fraction <= max(3.0 * pred, 10.0 / n) + 0.02
    return [[
        f"{beta:.2f}", f"{d2:.0f}", m, f"{q.bad_group_fraction:.4f}",
        f"{pred:.2e}", f"{cher:.2e}", "ok" if ok else "FAIL",
    ]]


def _finalize(table: TableResult, results, context) -> None:
    # headline comparison: size needed for polylog vs poly targets
    n, seed = context["n"], context["seed"]
    betas = list(dict.fromkeys(res.coords["beta"] for res in results))
    for beta in betas:
        thr = (1 + SystemParams(n=n, beta=beta, seed=seed).delta) * beta
        s_polylog = group_size_for_target(n, beta, thr, 1.0 / np.log(n) ** 3)
        s_poly = group_size_for_target(n, beta, thr, 1.0 / n**2)
        table.add_note(
            f"beta={beta:.2f}: size for p_f<=1/ln^3 n: {s_polylog} "
            f"(~log log n) vs for 1/n^2: {s_poly} (~log n)"
        )


def build_spec(
    seed: int = 0,
    fast: bool = True,
    n: int | None = None,
    betas: tuple[float, ...] = (0.05, 0.10, 0.15),
    d2_values: tuple[float, ...] = (4.0, 8.0, 12.0, 16.0),
) -> SweepSpec:
    n = n or (2048 if fast else 8192)
    return SweepSpec(
        experiment="E3",
        title=f"Bad-group probability vs group size (n={n})",
        headers=[
            "beta", "d2", "|G| solicited", "measured bad frac",
            "binomial tail", "chernoff", "within 3x+noise",
        ],
        cell=_cell,
        axes=(("beta", tuple(betas)), ("d2", tuple(d2_values))),
        context=dict(n=n, seed=seed),
        seed=seed,
        finalize=_finalize,
        pass_kernel=True,
    )


def run(
    seed: int = 0,
    fast: bool = True,
    exec_config: ExecutionConfig | None = None,
    **overrides,
) -> TableResult:
    """Execute the sweep; ``build_spec`` is the single source of truth
    for the experiment's knobs and defaults."""
    return run_sweep(
        build_spec(seed=seed, fast=fast, **overrides), exec_config=exec_config
    )
