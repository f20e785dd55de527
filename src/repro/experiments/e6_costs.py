"""E6 — Corollary 1: cost comparison, tiny groups vs ``Theta(log n)`` groups.

For each ``n``: build both constructions on the same ring/topology/adversary
and *measure* the three §I costs — group-communication messages per
all-to-all round, secure-routing messages per search (averaged over random
probes), and per-ID state (group memberships x |G| + neighbor-group member
tracking).  Corollary 1 predicts the tiny construction wins each column by
``(log n / log log n)^2``; the table prints measured values plus that
predicted ratio next to the realized one.

Declared as an ``n``-axis :class:`~repro.sim.sweep.SweepSpec`: each scale
builds both constructions on its own spawned stream, so the scales run
cell-parallel under the process backend.  Both constructions use the
one-pass CSR group-build kernel.
"""

from __future__ import annotations

import numpy as np

from ..adversary import UniformAdversary
from ..analysis.theory import group_size_for_target
from ..baselines.logn_groups import build_logn_static
from ..core.params import SystemParams
from ..core.static_case import constructive_static_graph
from ..inputgraph import make_input_graph
from ..sim.sweep import CellOut, SweepSpec

__all__ = ["build_spec"]


def _cell(
    rng: np.random.Generator, *, n: int, beta: float, topology: str,
    probes: int, seed: int,
):
    adv = UniformAdversary(beta)
    ids, bad = adv.population(n, rng)
    H = make_input_graph(topology, ids)
    params = SystemParams(n=n, beta=beta, seed=seed)
    thr = params.bad_member_threshold

    # Size each construction for ITS security target (the honest
    # comparison): tiny aims at eps = 1/polylog(n), classic at 1/poly(n).
    m_tiny = group_size_for_target(n, beta, thr, 1.0 / np.log(n) ** 3)
    m_classic = group_size_for_target(n, beta, thr, 1.0 / float(n) ** 2)

    gg_tiny, gs_tiny, _ = constructive_static_graph(
        H, params.with_(d2=max(1.0, m_tiny / params.ln_ln_n)), bad, rng=rng,
    )
    tiny_route = gg_tiny.evaluate(
        H.random_route_batch(probes, rng)
    ).messages.mean()
    s_tiny = float(np.maximum(gs_tiny.sizes(), 1).mean())
    tiny_comm = s_tiny * (s_tiny - 1)
    tiny_state = float(
        gs_tiny.membership_counts().mean() * s_tiny
        + 2.0 * s_tiny  # tracked neighbor groups' members (const-degree share)
    )

    bl = build_logn_static(
        H, params, bad, rng,
        size_multiplier=m_classic / max(1, params.logn_group_size),
    )
    logn_route = bl.group_graph.evaluate(
        H.random_route_batch(probes, rng)
    ).messages.mean()
    s_logn = float(np.maximum(bl.groups.sizes(), 1).mean())
    logn_comm = s_logn * (s_logn - 1)
    logn_state = float(
        bl.groups.membership_counts().mean() * s_logn + 2.0 * s_logn
    )

    pred = (np.log(n) / max(1.0, np.log(np.log(n)))) ** 2
    return CellOut(
        rows=[
            [n, "tiny", f"{s_tiny:.1f}", f"{tiny_comm:.0f}",
             f"{tiny_route:.0f}", f"{tiny_state:.0f}", "1.0x"],
            [n, "classic", f"{s_logn:.1f}", f"{logn_comm:.0f}",
             f"{logn_route:.0f}", f"{logn_state:.0f}",
             f"{logn_route / max(tiny_route, 1e-9):.1f}x"],
        ],
        notes=(
            f"n={n}: predicted classic/tiny ratio (log n / log log n)^2 = {pred:.1f}",
        ),
    )


def build_spec(
    seed: int = 0,
    fast: bool = True,
    n_values: tuple[int, ...] | None = None,
    beta: float = 0.05,
    topology: str = "chord",
    probes: int | None = None,
) -> SweepSpec:
    ns = tuple(n_values or ((512, 1024, 2048) if fast else (1024, 4096, 16384)))
    probes = probes or (4000 if fast else 20_000)
    return SweepSpec(
        experiment="E6",
        title="Corollary 1 costs: tiny (log log n) vs classic (log n) groups",
        headers=[
            "n", "construction", "|G|", "group-comm msgs",
            "routing msgs/search", "state/ID", "routing ratio vs tiny",
        ],
        cell=_cell,
        axes=(("n", ns),),
        context=dict(beta=beta, topology=topology, probes=probes, seed=seed),
        seed=seed,
    )
