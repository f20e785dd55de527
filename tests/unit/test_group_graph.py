"""Unit tests: group graph search semantics (repro.core.group_graph)."""

import numpy as np
import pytest

from repro.core.group_graph import GroupGraph
from repro.core.params import SystemParams
from repro.inputgraph import make_input_graph


@pytest.fixture
def H():
    return make_input_graph("chord", np.random.default_rng(3).random(256))


@pytest.fixture
def params():
    return SystemParams(n=256, seed=0)


class TestConstruction:
    def test_red_shape_validated(self, H, params):
        with pytest.raises(ValueError):
            GroupGraph(H, params, red=np.zeros(5, dtype=bool))

    def test_fraction_red(self, H, params):
        red = np.zeros(H.n, dtype=bool)
        red[:64] = True
        gg = GroupGraph(H, params, red=red)
        assert gg.fraction_red == pytest.approx(0.25)

    def test_synthetic_red_rate(self, H, params):
        gg = GroupGraph.with_synthetic_red(H, params, 0.2, np.random.default_rng(0))
        assert 0.1 < gg.fraction_red < 0.3

    def test_neighbor_groups_follow_H(self, H, params):
        gg = GroupGraph(H, params, red=np.zeros(H.n, dtype=bool))
        assert np.array_equal(gg.neighbor_groups(7), H.neighbors(7))

    def test_red_frozen_but_callers_array_writeable(self, H, params):
        red = np.zeros(H.n, dtype=bool)
        gg = GroupGraph(H, params, red=red)
        assert red.flags.writeable
        assert not gg.red.flags.writeable
        red[3] = True  # the caller's array is still the graph's data
        assert gg.red[3]

    def test_default_group_sizes(self, H, params):
        gg = GroupGraph(H, params, red=np.zeros(H.n, dtype=bool))
        assert (gg.group_sizes == params.group_solicit_size).all()


class TestEvaluate:
    def test_all_blue_all_succeed(self, H, params):
        gg = GroupGraph(H, params, red=np.zeros(H.n, dtype=bool))
        rate, ev, _ = gg.sample_failure_rate(500, np.random.default_rng(1))
        assert rate == 0.0
        assert ev.success.all()

    def test_all_red_all_fail(self, H, params):
        gg = GroupGraph(H, params, red=np.ones(H.n, dtype=bool))
        rate, _, _ = gg.sample_failure_rate(200, np.random.default_rng(1))
        assert rate == 1.0

    def test_red_source_fails_search(self, H, params):
        red = np.zeros(H.n, dtype=bool)
        red[5] = True
        gg = GroupGraph(H, params, red=red)
        batch = H.route_many(np.array([5]), np.array([0.5]))
        ev = gg.evaluate(batch)
        assert not ev.success[0]

    def test_include_source_false_ignores_red_source(self, H, params):
        red = np.zeros(H.n, dtype=bool)
        red[5] = True
        gg = GroupGraph(H, params, red=red)
        # pick a target whose path from 5 doesn't revisit 5
        batch = H.route_many(np.array([5]), np.array([(H.ring.ids[5] + 0.43) % 1.0]))
        ev = gg.evaluate(batch, include_source=False)
        path = batch.paths[0]
        inner = path[path != -1][1:]
        if not red[inner].any():
            assert ev.success[0]

    def test_search_path_stops_at_first_red(self, H, params):
        rng = np.random.default_rng(2)
        batch = H.random_route_batch(300, rng)
        # mark the 2nd hop of query 0 red
        path0 = batch.paths[0]
        nodes = path0[path0 != -1]
        if nodes.size >= 3:
            red = np.zeros(H.n, dtype=bool)
            red[nodes[1]] = True
            gg = GroupGraph(H, params, red=red)
            ev = gg.evaluate(batch)
            assert not ev.success[0]
            assert ev.first_red_col[0] == 1
            # search-path mask covers exactly positions 0..1
            assert ev.search_path_mask[0, :2].all()
            assert not ev.search_path_mask[0, 2:].any()

    def test_failure_rate_close_to_union_estimate(self, H, params):
        rng = np.random.default_rng(4)
        gg = GroupGraph.with_synthetic_red(H, params, 0.02, rng)
        rate, ev, batch = gg.sample_failure_rate(4000, rng)
        mean_len = float((batch.paths != -1).sum(axis=1).mean())
        upper = gg.fraction_red * mean_len
        assert rate <= upper * 1.5 + 0.02


class TestResponsibility:
    def test_sums_to_mean_path_length(self, H, params):
        gg = GroupGraph(H, params, red=np.zeros(H.n, dtype=bool))
        rng = np.random.default_rng(5)
        rho = gg.responsibility(2000, rng)
        batch = H.random_route_batch(2000, np.random.default_rng(5))
        # sum of responsibilities ~ expected search-path length
        assert rho.sum() == pytest.approx(
            (batch.paths != -1).sum(axis=1).mean(), rel=0.2
        )

    def test_adversary_cannot_inflate_via_red_redirects(self, H, params):
        """Responsibility counts only search-path prefixes: marking groups
        red REDUCES measured traversals beyond them."""
        rng = np.random.default_rng(6)
        blue = GroupGraph(H, params, red=np.zeros(H.n, dtype=bool))
        rho_blue = blue.responsibility(4000, rng)
        red_mask = np.random.default_rng(7).random(H.n) < 0.3
        red = GroupGraph(H, params, red=red_mask)
        rho_red = red.responsibility(4000, np.random.default_rng(6))
        assert rho_red.sum() <= rho_blue.sum() + 0.5
