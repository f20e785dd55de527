"""E15 — §III remark: guarantees hold when the system size varies Θ(n).

"Our results hold when the system size is Θ(n) — that is, the size changes
by a constant factor — but we omit these details."  We run the epoch
protocol with an oscillating population schedule (n/2 .. 2n over epochs)
and check that the red-group fraction and ε stay pinned — group sizes are
keyed to ``ln ln n`` which barely moves across a constant factor, so the
composition tail is unchanged and only the route length wobbles.

Declared as a single-cell :class:`~repro.sim.sweep.SweepSpec` (one
sequential epoch trajectory under the size schedule).
"""

from __future__ import annotations

import numpy as np

from ..analysis.tables import TableResult
from ..churn import UniformChurn
from ..core.dynamic import EpochSimulator
from ..core.params import SystemParams
from ..sim.montecarlo import ExecutionConfig
from ..sim.sweep import CellOut, SweepSpec, run_sweep

__all__ = ["run", "build_spec"]

# oscillate: n, 2n, n, n/2, n, 2n, ...
_FACTORS = (1.0, 2.0, 1.0, 0.5)


def _cell(
    rng: np.random.Generator, *, n: int, beta: float, d2: float, epochs: int,
    topology: str, probes: int, seed: int,
):
    params = SystemParams(n=n, beta=beta, d1=d2 / 4.0, d2=d2, seed=seed)

    def schedule(epoch: int) -> int:
        return int(n * _FACTORS[epoch % len(_FACTORS)])

    sim = EpochSimulator(
        params,
        topology=topology,
        churn=UniformChurn(rate=0.05),
        probes=probes,
        rng=rng,
        size_schedule=schedule,
    )
    rows = []
    reports = sim.run(epochs)
    for rep in reports:
        rows.append([
            rep.epoch, rep.build_1.n_new, f"{rep.fraction_red:.4f}",
            f"{rep.qf:.4f}", f"{rep.robustness.epsilon_achieved:.4f}",
        ])
    reds = [r.fraction_red for r in reports]
    return CellOut(
        rows=rows,
        notes=(
            f"red fraction across the 4x size swing: min={min(reds):.4f}, "
            f"max={max(reds):.4f} — group sizes key to ln ln n, which moves "
            f"~{abs(np.log(np.log(2 * n)) - np.log(np.log(n // 2))):.2f} across "
            f"the swing",
        ),
    )


def build_spec(
    seed: int = 0,
    fast: bool = True,
    n: int | None = None,
    beta: float = 0.05,
    d2: float = 10.0,
    epochs: int | None = None,
    topology: str = "chord",
) -> SweepSpec:
    n = n or (512 if fast else 2048)
    epochs = epochs or 6
    return SweepSpec(
        experiment="E15",
        title=f"Theta(n) size drift (base n={n}, schedule x{list(_FACTORS)})",
        headers=["epoch", "n this epoch", "frac red", "q_f", "eps achieved"],
        cell=_cell,
        context=dict(
            n=n, beta=beta, d2=d2, epochs=epochs, topology=topology,
            probes=2000 if fast else 8000, seed=seed,
        ),
        seed=seed,
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
