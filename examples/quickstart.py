#!/usr/bin/env python3
"""Quickstart: build a tiny-group overlay and walk through Figure 1.

Demonstrates the public API end to end:

1. parameterize a system (``SystemParams``);
2. mint a population with a compute-bounded adversary;
3. build an input graph (Chord) and the tiny-group graph on top;
4. run the paper's Figure 1 scenario — a secure search that succeeds over
   blue groups, then fails when a group on its path turns red;
5. measure ε-robustness and the Corollary 1 costs.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.adversary import UniformAdversary
from repro.analysis.tables import render_table
from repro.core import (
    SecureRouter,
    SystemParams,
    constructive_static_graph,
    corollary1_predictions,
    evaluate_robustness,
)
from repro.inputgraph import make_input_graph, validate_properties


def main() -> None:
    params = SystemParams(n=1024, beta=0.05, seed=7)
    print("System:", params.describe())
    rng = np.random.default_rng(params.seed)

    # --- population: good IDs u.a.r., adversary PoW-constrained to u.a.r. ----
    adversary = UniformAdversary(params.beta)
    ids, bad_mask = adversary.population(params.n, rng)
    print(f"\nPopulation: {ids.size} IDs, {int(bad_mask.sum())} Byzantine "
          f"({bad_mask.mean():.1%})")

    # --- input graph H with properties P1-P4 ---------------------------------
    H = make_input_graph("chord", ids)
    report = validate_properties(H, probes=10_000, rng=rng)
    print("\nInput graph P1-P4 check:")
    print(render_table(["property", "measured", "bound", "ok"], report.rows()))

    # --- the tiny-group graph -------------------------------------------------
    gg, groups, quality = constructive_static_graph(H, params, bad_mask, rng=rng)
    print(f"\nGroup graph: {gg.n} groups of mean size "
          f"{groups.sizes().mean():.1f} (= Theta(log log n)); "
          f"{gg.fraction_red:.2%} red")

    # --- Figure 1: a secure search ------------------------------------------
    router = SecureRouter(gg)
    w = int(rng.integers(gg.n))
    key = float(rng.random())
    out = router.search(w, key)
    print(f"\nFigure 1 walk-through: search from group {w} for key {key:.4f}")
    print(f"  path (groups): {list(out.path)}")
    print(f"  delivered={out.delivered}, hops={out.hops}, "
          f"messages={out.messages} (all-to-all per hop)")

    # paint a mid-path group red and watch the same search fail
    if out.path.size >= 3:
        red2 = gg.red.copy()
        red2[out.path[1]] = True
        from repro.core import GroupGraph

        gg_attacked = GroupGraph(H, params, red=red2, groups=groups)
        out2 = SecureRouter(gg_attacked).search(w, key)
        print(f"  after marking group {int(out.path[1])} red ('B' in Fig. 1): "
              f"delivered={out2.delivered}, corrupted={out2.corrupted}")

    # --- ε-robustness (Theorem 3) ---------------------------------------------
    rob = evaluate_robustness(gg, rng)
    print("\nε-robustness (Theorem 3):")
    print(render_table(["quantity", "value"], rob.rows()))
    print(f"  -> eps achieved = {rob.epsilon_achieved:.4f} "
          f"(target envelope {rob.eps_target:.4f})")

    # --- Corollary 1 costs ------------------------------------------------------
    pred = corollary1_predictions(
        params.n, params.group_solicit_size, np.log2(params.n) / 2
    )
    print("\nCorollary 1 cost model (tiny groups):")
    print(render_table(["cost", "value"], pred.rows()))


if __name__ == "__main__":
    main()
