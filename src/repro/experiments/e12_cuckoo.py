"""E12 — §I-B related-work comparison: the cuckoo rule needs big groups.

Re-run the Sen-Freedman [47] methodology quoted by the paper: ``n = 8192``,
``beta ≈ 0.002``, adversarial join-leave churn, group sizes swept — the
classic cuckoo rule needs ``|G| = 64`` to survive ``10^5`` events.  The
commensal variant is also run at a larger beta.  The last rows put the
PoW tiny-group construction next to it: at the same ``n`` its solicited
group size is ``d2 ln ln n`` (~17) and the bad-group fraction stays at
``1/poly(log n)`` *by construction* — because PoW throttles exactly the
rejoin churn the attack is made of, instead of out-sizing it.

Shape expectations (absolute event counts vary with the simulator's
constants): survival time increases steeply with group size; sizes ≤ 16
fail quickly; 64 survives the full run.

Declared as a single-cell :class:`~repro.sim.sweep.SweepSpec` that opts
into ``exec_config``: the cell spawns one child RNG stream per
(construction, |G|) case from its own sweep stream — the single entropy
source, so every case reproduces identically on any backend — and either
fans the cases out across the spawn pool (``--backend process``) or runs
them in-process, each through the
:class:`~repro.baselines.cuckoo.CuckooSimulator` array-relocation kernel.
"""

from __future__ import annotations

import numpy as np

from ..analysis.theory import bad_group_probability
from ..baselines.cuckoo import CuckooResult, CuckooSimulator
from ..core.params import SystemParams
from ..sim.montecarlo import ExecutionConfig, spawn_map
from ..sim.sweep import CellOut, SweepSpec

__all__ = ["build_spec"]


def _churn_case(
    sim_kwargs: dict,
    events: int,
    seed_seq: np.random.SeedSequence,
) -> CuckooResult:
    """One (construction, |G|) churn run — module-level so the ``process``
    backend can dispatch the independent cases across spawn workers.  The
    case's generator is rebuilt from its parent-spawned ``SeedSequence``,
    so the sweep's per-cell stream stays the single entropy source and
    results match the in-process path bit-for-bit at any worker count."""
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    return CuckooSimulator(**sim_kwargs, rng=rng).run(events)


def _cell(
    rng: np.random.Generator, *, n: int, beta: float, sizes: tuple[int, ...],
    events: int, threshold: float, commensal_beta: float, seed: int,
    exec_config: ExecutionConfig | None,
):
    cases = [
        ("cuckoo", dict(n=n, beta=beta, group_size=size, k=2,
                        threshold=threshold))
        for size in sizes
    ] + [
        ("commensal cuckoo", dict(n=n, beta=commensal_beta, group_size=size,
                                  k=4, commensal=True, threshold=threshold))
        for size in sizes
    ]
    # one independent child stream per case, spawned from the cell's own
    # sweep stream — the single entropy source (no re-derivation from seed)
    child_seqs = rng.bit_generator.seed_seq.spawn(len(cases))  # type: ignore[attr-defined]
    use_pool = exec_config is not None and exec_config.backend == "process"
    outs = spawn_map(
        _churn_case,
        [kw for _, kw in cases],
        [events] * len(cases),
        child_seqs,
        workers=exec_config.resolved_workers() if use_pool else 1,
    )
    rows = []
    for (label, kw), out in zip(cases, outs):
        rows.append([
            label, f"{kw['beta']:.3f}", kw["group_size"], out.events_survived,
            "YES" if out.failed else "no", f"{out.max_bad_fraction:.2f}",
        ])
    # tiny-group construction at the same n for contrast
    params = SystemParams(n=n, beta=0.05, seed=seed)
    m = params.group_solicit_size
    pf = bad_group_probability(m, 0.05, params.bad_member_threshold)
    rows.append([
        "tiny groups + PoW", "0.050", m, "(churn throttled by PoW)",
        "no", f"p_f~{pf:.1e}",
    ])
    return CellOut(
        rows=rows,
        notes=(
            "[47]'s finding reproduced in shape: survival grows steeply with "
            "|G|; the paper's point is that PoW removes the rejoin lever, so "
            "|G| can drop to Theta(log log n)",
        ),
    )


def build_spec(
    seed: int = 0,
    fast: bool = True,
    n: int | None = None,
    beta: float = 0.002,
    sizes: tuple[int, ...] = (8, 16, 32, 64),
    events: int | None = None,
    threshold: float = 1.0 / 3.0,
    commensal_beta: float = 0.02,
) -> SweepSpec:
    n = n or (4096 if fast else 8192)
    events = events or (20_000 if fast else 100_000)
    return SweepSpec(
        experiment="E12",
        title=f"Cuckoo rule vs tiny groups under join-leave attack (n={n})",
        headers=[
            "construction", "beta", "|G|", "events survived",
            "failed", "max bad frac",
        ],
        cell=_cell,
        context=dict(
            n=n, beta=beta, sizes=tuple(sizes), events=events,
            threshold=threshold, commensal_beta=commensal_beta, seed=seed,
        ),
        seed=seed,
        pass_exec_config=True,
    )
