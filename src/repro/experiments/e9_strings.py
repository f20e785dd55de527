"""E9 — Lemma 12: the string-propagation protocol.

Run the App.-VIII gossip over a real group graph's adjacency, with the
adversary's red groups excluded, under three scenarios:

* **clean** — no interference;
* **delayed release** — the adversary's own small-output strings injected at
  the last round of Phase 2;
* **delayed global minimum** — a string *smaller than every honest output*
  injected at the same instant (footnote 16's variant), which makes IDs
  disagree on ``s*`` but — thanks to Phase 3 and the solution sets — never
  on verifiability.

Reported against Lemma 12's three bounds: agreement, set size ``O(ln n)``,
message complexity ``~O(n ln T)`` group-messages.

Declared as a single-cell :class:`~repro.sim.sweep.SweepSpec`: the three
scenarios deliberately replay the *same* gossip stream (a paired contrast),
so they stay one sequential cell.
"""

from __future__ import annotations

import numpy as np

from ..core.params import SystemParams
from ..core.static_case import constructive_static_graph
from ..adversary import UniformAdversary
from ..inputgraph import make_input_graph
from ..pow.propagation import StringPropagation
from ..sim.sweep import CellOut, SweepSpec

__all__ = ["build_spec"]


def _cell(
    rng: np.random.Generator, *, n: int, beta: float, epoch_length: int,
    topology: str, seed: int,
):
    adv = UniformAdversary(beta)
    ids, bad = adv.population(n, rng)
    H = make_input_graph(topology, ids)
    params = SystemParams(n=n, beta=beta, seed=seed)
    gg, gs, _ = constructive_static_graph(H, params, bad, rng=rng)
    indptr, indices = H.neighbor_lists()
    prop = StringPropagation(
        indptr, indices, ~gg.red, group_size=params.group_solicit_size,
        epoch_length=epoch_length,
    )

    scenarios = [
        ("clean", dict()),
        ("delayed release", dict(adversary_beta=beta, delayed_release=True)),
        (
            "delayed global min",
            dict(delayed_release=True, forced_injection_output=1e-12),
        ),
    ]
    # every scenario replays the same gossip stream: one sub-seed, re-used
    sub = int(rng.integers(0, 2**32))
    rows = []
    for name, kwargs in scenarios:
        res = prop.run(np.random.default_rng(sub), **kwargs)
        rows.append([
            name,
            "ok" if res.agreement else "FAIL",
            "yes" if res.global_min_agreed else "no",
            res.max_solution_set,
            res.rounds,
            res.messages,
            res.giant_component_size,
        ])
    # Lemma 12(iii): O~(n ln T) group-edge activations, where O~ hides the
    # polylog forwarding cap (ln n per bin, ln(nT) bins) and each activation
    # costs |G|^2 point-to-point messages.
    g2 = params.group_solicit_size**2
    msg_bound = 2.0 * n * params.ln_n * np.log(n * epoch_length) * g2
    r_bound = int(np.ceil(4 * params.ln_n))
    return CellOut(
        rows=rows,
        notes=(
            f"Lemma 12(ii): |R| <= O(ln n) ~ {r_bound}",
            f"Lemma 12(iii): messages <= O~(n ln T)*|G|^2 ~ {msg_bound:.2e} "
            f"(per-ID forwarding capped at O(ln n * ln nT) by bins/counters)",
            "'delayed global min' shows s* disagreement WITHOUT verification "
            "disagreement: the solution sets absorb the late string (Phase 3)",
        ),
    )


def build_spec(
    seed: int = 0,
    fast: bool = True,
    n: int | None = None,
    beta: float = 0.10,
    epoch_length: int = 4096,
    topology: str = "chord",
) -> SweepSpec:
    n = n or (512 if fast else 2048)
    return SweepSpec(
        experiment="E9",
        title=f"String propagation (n={n}, T={epoch_length}, {topology})",
        headers=[
            "scenario", "agreement", "s* unanimous", "max |R|",
            "rounds", "group msgs", "giant comp",
        ],
        cell=_cell,
        context=dict(
            n=n, beta=beta, epoch_length=epoch_length, topology=topology,
            seed=seed,
        ),
        seed=seed,
    )
