"""Unit tests: group graph search semantics (repro.core.group_graph)."""

import numpy as np
import pytest

from repro.adversary import UniformAdversary
from repro.core.group_graph import GroupGraph
from repro.core.params import SystemParams
from repro.core.static_case import constructive_static_graph
from repro.inputgraph import make_input_graph
from repro.inputgraph.base import PADDING, RouteBatch


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
        ev = gg.evaluate(H.random_route_batch(500, np.random.default_rng(1)))
        assert ev.failure_rate == 0.0
        assert ev.delivered.all()

    def test_all_red_all_fail(self, H, params):
        gg = GroupGraph(H, params, red=np.ones(H.n, dtype=bool))
        ev = gg.evaluate(H.random_route_batch(200, np.random.default_rng(1)))
        assert ev.failure_rate == 1.0

    def test_red_source_fails_search(self, H, params):
        red = np.zeros(H.n, dtype=bool)
        red[5] = True
        gg = GroupGraph(H, params, red=red)
        batch = H.route_many(np.array([5]), np.array([0.5]))
        ev = gg.evaluate(batch)
        assert not ev.delivered[0]

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
            assert ev.delivered[0]

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
            assert not ev.delivered[0]
            assert ev.first_blocked[0] == 1
            # search-path mask covers exactly positions 0..1
            assert ev.search_path_mask()[0, :2].all()
            assert not ev.search_path_mask()[0, 2:].any()

    def test_failure_rate_close_to_union_estimate(self, H, params):
        rng = np.random.default_rng(4)
        gg = GroupGraph.with_synthetic_red(H, params, 0.02, rng)
        batch = H.random_route_batch(4000, rng)
        mean_len = float((batch.paths != -1).sum(axis=1).mean())
        upper = gg.fraction_red * mean_len
        assert gg.evaluate(batch).failure_rate <= upper * 1.5 + 0.02


class TestOneClassifier:
    """The red mask alone decides a search: every group that could be
    outvoted is red, and evaluate reports every outcome the router and
    the serving layer need."""

    @pytest.mark.parametrize("beta", [0.05, 0.2, 0.3])
    def test_constructive_red_holds_every_non_minority_group(self, beta):
        rng = np.random.default_rng(21)
        params = SystemParams(n=512, beta=beta, seed=0)
        ids, bad = UniformAdversary(beta).population(params.n, rng)
        H = make_input_graph("chord", ids)
        gg, gs, _ = constructive_static_graph(H, params, bad, rng=rng)
        non_minority = 2 * gs.bad_counts(bad) >= gs.sizes()
        assert gg.red[non_minority].all()
        if beta == 0.3:
            assert non_minority.any()

    def test_unresolved_search_is_neither_delivered_nor_corrupted(
        self, H, params
    ):
        # serve's "unresolved" outcome: no red group, but no resolution
        gg = GroupGraph(H, params, red=np.zeros(H.n, dtype=bool))
        batch = RouteBatch(
            paths=np.array([[4, 9, 17, PADDING, PADDING]], dtype=np.int32),
            resolved=np.array([False]),
            responsible=np.array([30], dtype=np.int32),
        )
        ev = gg.evaluate(batch)
        assert not ev.delivered[0] and not ev.corrupted[0]
        assert ev.first_blocked[0] == 3  # the path length
        assert ev.hops[0] == 2
        assert ev.search_path_mask()[0].tolist() == [True] * 3 + [False] * 2

    def test_ignored_source_is_not_the_first_blocked(self, H, params):
        red = np.zeros(H.n, dtype=bool)
        red[[4, 17]] = True
        gg = GroupGraph(H, params, red=red)
        batch = RouteBatch(
            paths=np.array([[4, 9, PADDING, PADDING],
                            [4, 9, 17, PADDING]], dtype=np.int32),
            resolved=np.array([True, True]),
            responsible=np.array([9, 17], dtype=np.int32),
        )
        ev = gg.evaluate(batch, include_source=False)
        assert ev.delivered.tolist() == [True, False]
        assert ev.corrupted.tolist() == [False, True]
        assert ev.first_blocked.tolist() == [2, 2]
        strict = gg.evaluate(batch)
        assert strict.first_blocked.tolist() == [0, 0]


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
