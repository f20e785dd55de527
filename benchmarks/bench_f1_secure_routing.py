"""Bench F1 — Figure 1: secure group-graph search microbenchmark.

Figure 1 illustrates one secure search: all-to-all exchanges between
consecutive tiny groups with majority filtering.  This bench measures the
throughput of the vectorized search-evaluation pipeline (the hot loop of
every experiment) and the per-search message cost, side by side for the
tiny construction and the ``Theta(log n)`` baseline.
"""

import numpy as np
import pytest

from repro.adversary import UniformAdversary
from repro.analysis.tables import TableResult
from repro.baselines.logn_groups import build_logn_static
from repro.core.params import SystemParams
from repro.core.static_case import constructive_static_graph
from repro.inputgraph import make_input_graph

N = 2048
PROBES = 20_000


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(0)
    params = SystemParams(n=N, beta=0.05, seed=0)
    ids, bad = UniformAdversary(params.beta).population(N, rng)
    H = make_input_graph("chord", ids)
    gg, gs, _ = constructive_static_graph(H, params, bad, rng=rng)
    bl = build_logn_static(H, params, bad, rng)
    return gg, bl


@pytest.mark.benchmark(group="F1")
def test_bench_f1_tiny_search_eval(benchmark, setup, table_sink):
    gg, bl = setup

    def probe_batch():
        batch = gg.H.random_route_batch(PROBES, np.random.default_rng(1))
        return gg.evaluate(batch).failure_rate, batch

    def cost(g):
        batch = g.H.random_route_batch(4000, np.random.default_rng(2))
        return g.evaluate(batch).messages.mean()

    rate, batch = benchmark(probe_batch)
    tiny_cost, logn_cost = cost(gg), cost(bl.group_graph)

    table = TableResult(
        experiment="F1",
        title=f"Figure 1 secure-search microbenchmark (n={N}, {PROBES} probes)",
        headers=["quantity", "tiny groups", "classic log n groups"],
    )
    table.add_row("mean hops", f"{batch.hop_counts.mean():.1f}", "(same topology)")
    table.add_row("search failure rate", f"{rate:.4f}", "-")
    table.add_row("messages per secure search", f"{tiny_cost:.0f}", f"{logn_cost:.0f}")
    table.add_row(
        "messages ratio", "1.0x", f"{logn_cost / max(tiny_cost, 1e-9):.1f}x"
    )
    table_sink(table)
