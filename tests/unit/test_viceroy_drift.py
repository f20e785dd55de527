"""Unit tests: Viceroy topology specifics + EpochSimulator size drift."""

import numpy as np
import pytest

from repro.churn import UniformChurn
from repro.core.dynamic import EpochSimulator
from repro.core.params import SystemParams
from repro.idspace.ring import Ring
from repro.inputgraph import make_input_graph
from repro.inputgraph.viceroy import ViceroyGraph


@pytest.fixture(scope="module")
def graph():
    return make_input_graph("viceroy", np.random.default_rng(19).random(512))


class TestViceroy:
    def test_levels_in_range(self, graph):
        assert (graph.levels >= 1).all()
        assert (graph.levels <= graph.level_count).all()

    def test_no_empty_level(self, graph):
        for lvl in range(1, graph.level_count + 1):
            assert (graph.levels == lvl).any()

    def test_levels_deterministic_and_verifiable(self):
        """P3: any party can recompute the level assignment from the ID."""
        ring = Ring(np.random.default_rng(19).random(128))
        a = ViceroyGraph(ring)
        b = ViceroyGraph(ring)
        assert np.array_equal(a.levels, b.levels)

    def test_constant_degree(self, graph):
        # butterfly edges: 2 ring + 2 level ring + 2 down + 1 up, plus
        # reverse listings => O(1) mean
        assert graph.degrees().mean() < 12

    def test_hops_logarithmic(self, graph):
        batch = graph.random_route_batch(800, np.random.default_rng(3))
        assert batch.resolved.all()
        assert batch.hop_counts.mean() < 3 * np.log2(512)

    def test_nearest_at_level(self, graph):
        lvl = int(graph.levels[0])
        idx = graph._nearest_at_level(lvl, np.array([0.5]))[0]
        assert graph.levels[idx] == lvl
        # no same-level node strictly between 0.5 and the returned node
        pos = graph.ring.ids[graph._level_nodes[lvl]]
        d = (graph.ring.ids[idx] - 0.5) % 1.0
        others = (pos - 0.5) % 1.0
        assert (others[others > 0] >= d - 1e-15).all()

    def test_descent_reduces_distance(self, graph):
        """The butterfly descent makes monotone forward progress."""
        rng = np.random.default_rng(4)
        for _ in range(20):
            src = int(rng.integers(512))
            tgt = float(rng.random())
            path, ok = graph.route(src, tgt)
            assert ok


class TestSizeDrift:
    def test_schedule_changes_population(self):
        params = SystemParams(n=128, beta=0.05, seed=2)
        sim = EpochSimulator(
            params,
            probes=300,
            size_schedule=lambda e: 128 if e % 2 == 0 else 256,
            rng=np.random.default_rng(2),
        )
        r1 = sim.step()  # epoch 1 -> 256
        r2 = sim.step()  # epoch 2 -> 128
        assert r1.build_1.n_new == 256
        assert r2.build_1.n_new == 128

    def test_drift_keeps_robustness(self):
        params = SystemParams(n=128, beta=0.05, d1=2.5, d2=10.0, seed=3)
        sim = EpochSimulator(
            params,
            churn=UniformChurn(rate=0.05),
            probes=500,
            size_schedule=lambda e: [128, 256, 128, 64][e % 4],
            rng=np.random.default_rng(3),
        )
        for rep in sim.run(4):
            assert rep.fraction_red < 0.15

    def test_degenerate_schedule_rejected(self):
        params = SystemParams(n=128, seed=0)
        with pytest.raises(ValueError):
            # the epoch-0 population already consults the schedule
            EpochSimulator(
                params, probes=200, size_schedule=lambda e: 4,
                rng=np.random.default_rng(0),
            )
