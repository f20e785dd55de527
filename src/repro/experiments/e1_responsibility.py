"""E1 — Lemma 1 / P4: responsibility is ``O(log^c n / n)``.

For each topology and ``n``, route random searches on an all-blue group
graph and measure every group's *responsibility* (probability of lying on a
random search path).  Lemma 1 says the maximum stays under a constant times
``log^c n / n``; the table reports measured max/mean against the bound so
the reader sees both the scaling in ``n`` and the constant's headroom.

Declared as a (topology x n) :class:`~repro.sim.sweep.SweepSpec`: each
grid cell draws its own population from its spawned stream and measures
one topology at one scale, so the process backend can dispatch cells
concurrently without changing the table.  The cell body is fully
array-native (batch routing + one masked ``bincount``).
"""

from __future__ import annotations

import numpy as np

from ..core.params import SystemParams
from ..core.static_case import measure_responsibility_bound
from ..inputgraph import make_input_graph
from ..sim.sweep import SweepSpec

__all__ = ["build_spec"]


def _cell(rng: np.random.Generator, *, topology: str, n: int, probes: int, seed: int):
    ids = rng.random(n)
    H = make_input_graph(topology, ids)
    params = SystemParams(n=n, seed=seed)
    rho, bound = measure_responsibility_bound(H, params, probes, rng)
    return [[
        topology, n, f"{rho.max():.2e}", f"{rho.mean():.2e}",
        f"{bound:.2e}", "ok" if rho.max() <= bound else "FAIL",
    ]]


def build_spec(
    seed: int = 0,
    fast: bool = True,
    topologies: tuple[str, ...] = ("chord", "debruijn"),
    n_values: tuple[int, ...] | None = None,
    probes: int | None = None,
) -> SweepSpec:
    ns = tuple(n_values or ((256, 512, 1024) if fast else (256, 512, 1024, 2048, 4096)))
    probes = probes or (20_000 if fast else 100_000)
    return SweepSpec(
        experiment="E1",
        title="Responsibility rho(G_v) vs Lemma 1 bound O(log^c n / n)",
        headers=["topology", "n", "max rho", "mean rho", "bound", "within"],
        cell=_cell,
        axes=(("topology", tuple(topologies)), ("n", ns)),
        context=dict(probes=probes, seed=seed),
        seed=seed,
        notes=(
            "all-blue graph: search paths equal full H paths, so this doubles "
            "as the P4 congestion check at group granularity",
        ),
    )
