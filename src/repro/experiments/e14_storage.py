"""E14 — §I-A / footnote 2: redundant storage durability under churn.

Store a corpus in a tiny-group overlay, then run departure waves and
measure availability each round, with and without the repair
(anti-entropy) pass.  The ε-robustness promise — "all but an ε-fraction of
data is reachable and maintained reliably" — requires repair: without it,
replica sets thin out with churn until majorities flip; with it,
availability tracks the red-group fraction as long as churn stays inside
the ``eps'/2`` model.

Declared as a single-cell :class:`~repro.sim.sweep.SweepSpec` (the churn
rounds form one stateful trajectory over the paired stores).
"""

from __future__ import annotations

import numpy as np

from ..adversary import UniformAdversary
from ..core.params import SystemParams
from ..core.static_case import constructive_static_graph
from ..core.storage import GroupStore
from ..inputgraph import make_input_graph
from ..sim.sweep import CellOut, SweepSpec

__all__ = ["build_spec"]


def _fresh_store(params, beta, rng, topology):
    ids, bad = UniformAdversary(beta).population(params.n, rng)
    H = make_input_graph(topology, ids)
    gg, groups, _ = constructive_static_graph(H, params, bad, rng=rng)
    departed = np.zeros(H.n, dtype=bool)
    return GroupStore(gg, bad, departed=departed), bad, departed


def _cell(
    rng: np.random.Generator, *, n: int, beta: float, objects: int,
    churn_rounds: int, departure_rate: float, topology: str, seed: int,
):
    params = SystemParams(n=n, beta=beta, seed=seed)

    # Both stores start identical; the repair store migrates to a fresh
    # epoch graph each round (what the dynamic protocol does), while the
    # pinned store keeps its original groups whose members bleed away.
    # departure_rate deliberately exceeds the eps'/2 model cap: the point
    # is to watch the *pinned* replicas die while migration shrugs it off.
    store_rep, bad_rep, dep_rep = _fresh_store(params, beta, rng, topology)
    store_no, bad_no, dep_no = _fresh_store(params, beta, rng, topology)
    for k in rng.random(objects):
        store_rep.put(float(k), f"obj-{k:.6f}", int(rng.integers(store_rep.gg.n)), rng)
        store_no.put(float(k), f"obj-{k:.6f}", int(rng.integers(store_no.gg.n)), rng)

    rows = [[
        0, f"{store_rep.survey(rng).availability:.1%}",
        f"{store_no.survey(rng).availability:.1%}", "-", 0,
    ]]
    for rnd in range(1, churn_rounds + 1):
        # departures hit both member pools
        for bad_mask, dep in ((bad_rep, dep_rep), (bad_no, dep_no)):
            good_ids = np.flatnonzero(~bad_mask & ~dep)
            dep[good_ids[rng.random(good_ids.size) < departure_rate]] = True
        # epoch repair: migrate recoverable objects into a fresh graph
        next_store, bad_rep, dep_rep = _fresh_store(params, beta, rng, topology)
        migrated = store_rep.migrate_to(next_store, rng)
        store_rep = next_store
        s_rep = store_rep.survey(rng)
        s_no = store_no.survey(rng)
        rows.append([
            rnd, f"{s_rep.succeeded / objects:.1%}",
            f"{s_no.succeeded / objects:.1%}",
            migrated, s_no.failed_replicas,
        ])
    return CellOut(
        rows=rows,
        notes=(
            "epoch repair re-homes objects into each fresh group graph via "
            "surviving good majorities, holding availability at ~(1 - eps); "
            "pinned replicas decay until majorities flip — footnote 2's "
            "redundancy needs the §III membership refresh",
        ),
    )


def build_spec(
    seed: int = 0,
    fast: bool = True,
    n: int | None = None,
    beta: float = 0.10,
    objects: int | None = None,
    churn_rounds: int = 6,
    departure_rate: float = 0.25,
    topology: str = "chord",
) -> SweepSpec:
    n = n or (512 if fast else 2048)
    objects = objects or (300 if fast else 2000)
    return SweepSpec(
        experiment="E14",
        title=f"Storage durability under churn (n={n}, beta={beta}, "
        f"{objects} objects, {departure_rate:.0%} departures/round)",
        headers=[
            "round", "availability (epoch repair)", "availability (pinned)",
            "migrated", "replica-loss failures (pinned)",
        ],
        cell=_cell,
        context=dict(
            n=n, beta=beta, objects=objects, churn_rounds=churn_rounds,
            departure_rate=departure_rate, topology=topology, seed=seed,
        ),
        seed=seed,
    )
