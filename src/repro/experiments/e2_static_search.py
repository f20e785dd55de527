"""E2 — Lemmas 2-4: static failure probability ``X = O(p_f log^c n)``.

Sweep the S2 red probability ``p_f`` on a fixed topology and measure the
search-failure probability ``X``.  Lemma 2/3 predict ``X`` scales linearly
in ``p_f`` with slope ``O(log^c n)``; Lemma 4 turns that into the success
bound ``1 - O(1/log^{k-c} n)`` when ``p_f <= 1/log^k n``.  The table shows
the measured ``X``, the linear prediction, and the measured/predicted ratio
(flat ratio == correct scaling).

Declared as a ``p_f``-axis :class:`~repro.sim.sweep.SweepSpec`: every cell
rebuilds the *same* substrate graph (keyed by the experiment seed, so the
sweep still varies only ``p_f``) and then colours/probes it from its own
spawned stream — cells are independent, so the process backend dispatches
them concurrently with a bit-identical table.

Each cell evaluates all its probes in one batched secure-search kernel
that walks every probe path in lockstep.
"""

from __future__ import annotations

import numpy as np

from ..analysis.tables import TableResult
from ..core.params import SystemParams
from ..core.static_case import measure_static_search, synthetic_static_graph
from ..inputgraph import make_input_graph
from ..sim.sweep import CellOut, SweepSpec

__all__ = ["build_spec"]


def _cell_out(pf: float, stats) -> CellOut:
    slope = stats.failure_rate / max(stats.pf, 1e-12)
    row = [
        f"{pf:.3f}", f"{stats.pf:.4f}", f"{stats.failure_rate:.4f}",
        f"{stats.mean_search_path_len:.1f}", f"{slope:.1f}",
        f"{stats.success_rate:.4f}",
    ]
    return CellOut(rows=[row], aux=slope)


def _cell(
    rng: np.random.Generator, *, pf: float, topology: str, n: int,
    probes: int, seed: int, probe_chunk: int | None = None,
):
    # identical substrate in every cell: the graph is a function of the
    # experiment seed, so only the red colouring and probes vary with p_f
    ids = np.random.default_rng(seed).random(n)
    H = make_input_graph(topology, ids)
    params = SystemParams(n=n, seed=seed)
    gg = synthetic_static_graph(H, params, pf, rng)
    stats = measure_static_search(gg, probes, rng, probe_chunk=probe_chunk)
    return _cell_out(pf, stats)


def _finalize(table: TableResult, results, context) -> None:
    # Lemma 2: slope = Theta(mean search-path length); report the spread so
    # linearity is visible in the rendered table.
    slopes = [res.aux for res in results]
    lo, hi = (min(slopes), max(slopes)) if slopes else (0.0, 0.0)
    table.add_note(
        f"slope X/p_f should be ~constant (= expected traversed groups): "
        f"spread [{lo:.1f}, {hi:.1f}]"
    )
    params = SystemParams(n=context["n"], seed=context["seed"])
    table.add_note(
        f"Lemma 4 envelope at p_f = 1/ln^k n = {params.pf_target:.2e}: "
        f"success >= 1 - O(1/ln^(k-c) n)"
    )


def build_spec(
    seed: int = 0,
    fast: bool = True,
    topology: str = "chord",
    n: int | None = None,
    pf_values: tuple[float, ...] = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1),
    probes: int | None = None,
    probe_chunk: int | None = None,
) -> SweepSpec:
    n = n or (1024 if fast else 4096)
    probes = probes or (20_000 if fast else 100_000)
    return SweepSpec(
        experiment="E2",
        title=f"Static search failure X vs p_f ({topology}, n={n})",
        headers=[
            "p_f", "realized p_f", "X measured", "mean path len",
            "X/p_f (slope)", "success rate",
        ],
        cell=_cell,
        axes=(("pf", tuple(pf_values)),),
        context=dict(
            topology=topology, n=n, probes=probes, seed=seed,
            probe_chunk=probe_chunk,
        ),
        seed=seed,
        finalize=_finalize,
    )
