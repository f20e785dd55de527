"""Unit tests: §III-A new-graph construction (repro.core.membership)."""

import numpy as np
import pytest

from repro.core.membership import (
    EpochPair,
    GraphSide,
    build_new_graph,
    measure_qf,
)
from repro.core.params import SystemParams
from repro.idspace.ring import Ring
from repro.inputgraph import make_input_graph


def make_pair(n=128, beta=0.05, pf=0.0, seed=0):
    rng = np.random.default_rng(seed)
    ids = rng.random(n)
    ring = Ring(ids)
    bad = rng.random(ring.n) < beta
    H = make_input_graph("chord", ring)
    return EpochPair(
        ring=ring,
        H=H,
        bad_mask=bad,
        red1=rng.random(ring.n) < pf,
        red2=rng.random(ring.n) < pf,
    ), rng


@pytest.fixture
def params():
    return SystemParams(n=128, beta=0.05, seed=0)


class TestEpochPair:
    def test_red_selector(self):
        pair, _ = make_pair(pf=0.1)
        assert pair.red(1) is pair.red1
        assert pair.red(2) is pair.red2
        with pytest.raises(ValueError):
            pair.red(3)

    def test_fraction_red(self):
        pair, _ = make_pair(pf=0.0)
        assert pair.fraction_red() == 0.0

    def test_departed_default(self):
        pair, _ = make_pair()
        assert not pair.ring_departed.any()


class TestBuildCleanOlds:
    """With all-blue old graphs there are no captures or rejections."""

    def test_no_captures(self, params):
        pair, rng = make_pair(pf=0.0)
        new_ring = Ring(rng.random(128))
        new_H = make_input_graph("chord", new_ring)
        rep = build_new_graph(pair, new_ring, new_H, 1, params, rng)
        assert rep.slot_capture_rate == 0.0
        assert rep.rejection_rate == 0.0
        assert rep.fraction_confused == 0.0

    def test_bad_members_only_from_population(self, params):
        pair, rng = make_pair(pf=0.0, beta=0.05)
        new_ring = Ring(rng.random(128))
        new_H = make_input_graph("chord", new_ring)
        rep = build_new_graph(pair, new_ring, new_H, 1, params, rng)
        # bad candidate rate tracks the (arc-weighted) bad population share
        assert rep.bad_candidate_rate < 0.25

    def test_sizes_near_solicit(self, params):
        pair, rng = make_pair(pf=0.0)
        new_ring = Ring(rng.random(128))
        new_H = make_input_graph("chord", new_ring)
        rep = build_new_graph(pair, new_ring, new_H, 1, params, rng)
        assert rep.mean_group_size > 0.6 * params.group_solicit_size

    def test_membership_counts_sum(self, params):
        pair, rng = make_pair(pf=0.0, beta=0.0)
        new_ring = Ring(rng.random(128))
        new_H = make_input_graph("chord", new_ring)
        rep = build_new_graph(pair, new_ring, new_H, 1, params, rng)
        # every accepted good membership is counted exactly once
        side = rep.side
        assert rep.membership_counts.sum() == side.good_members.size


class TestBuildRedOlds:
    def test_all_red_olds_capture_everything(self, params):
        pair, rng = make_pair(pf=1.0)
        pair.red1[:] = True
        pair.red2[:] = True
        new_ring = Ring(rng.random(128))
        new_H = make_input_graph("chord", new_ring)
        rep = build_new_graph(pair, new_ring, new_H, 1, params, rng)
        # near-total capture: the only "successful" searches are the
        # degenerate source==responsible ones, which never checked a group
        assert rep.slot_capture_rate > 0.95
        assert rep.fraction_red == 1.0

    def test_dual_beats_single_capture(self, params):
        outs = {}
        for two in (True, False):
            pair, rng = make_pair(pf=0.10, seed=4)
            new_ring = Ring(rng.random(128))
            new_H = make_input_graph("chord", new_ring)
            rep = build_new_graph(
                pair, new_ring, new_H, 1, params, rng, two_graphs=two
            )
            outs[two] = rep.slot_capture_rate
        assert outs[True] < outs[False]

    def test_one_red_graph_harmless_with_dual(self, params):
        """If only old graph 2 is fully red, dual searches still succeed via
        graph 1: captures require BOTH to fail."""
        pair, rng = make_pair(pf=0.0)
        pair.red2[:] = True
        new_ring = Ring(rng.random(128))
        new_H = make_input_graph("chord", new_ring)
        rep = build_new_graph(pair, new_ring, new_H, 1, params, rng)
        assert rep.slot_capture_rate == 0.0


    @pytest.mark.parametrize("beta,pf", [(0.05, 0.3), (0.3, 0.1), (0.45, 0.0)])
    def test_non_minority_groups_are_red(self, params, beta, pf):
        """The construction colours from the shared good-group rule: a new
        group whose bad members are not a strict minority is red."""
        pair, rng = make_pair(beta=beta, pf=pf, seed=6)
        new_ring = Ring(rng.random(128))
        new_H = make_input_graph("chord", new_ring)
        rep = build_new_graph(pair, new_ring, new_H, 1, params, rng)
        non_minority = 2 * rep.side.n_bad >= rep.sizes
        assert rep.red[non_minority].all()
        if beta >= 0.3:
            assert non_minority.any()


class TestGraphSide:
    def _side(self, n_groups=2, pool=8):
        # group 0: members 0,1,2 good; 1 bad. group 1: members 3,4; 0 bad.
        departed = np.zeros(pool, dtype=bool)
        return GraphSide(
            good_indptr=np.array([0, 3, 5]),
            good_members=np.array([0, 1, 2, 3, 4]),
            n_bad=np.array([1, 0]),
            confused=np.zeros(2, dtype=bool),
            pool_departed=departed,
        )

    def test_good_remaining(self):
        side = self._side()
        assert list(side.good_remaining()) == [3, 2]
        side.pool_departed[1] = True
        assert list(side.good_remaining()) == [2, 2]

    def test_good_remaining_with_empty_rows(self):
        # groups 0 and 2 have no good member: their rows stay at zero, and
        # member 6 sits where the empty row 0 and row 1 both start
        side = GraphSide(
            good_indptr=np.array([0, 0, 2, 2]),
            good_members=np.array([6, 7]),
            n_bad=np.array([2, 0, 1]),
            confused=np.zeros(3, dtype=bool),
            pool_departed=np.zeros(8, dtype=bool),
        )
        assert list(side.good_remaining()) == [0, 2, 0]
        side.pool_departed[[0, 6]] = True
        assert list(side.good_remaining()) == [0, 1, 0]

    def test_classify_flags_decayed_majority(self, params):
        side = self._side()
        red0 = side.classify(params)
        assert not red0[0]
        # depart good members until bad fraction crosses 1/3: 1 bad of 2 total
        side.pool_departed[[0, 1]] = True
        red1 = side.classify(params)
        assert red1[0]

    def test_classify_flags_confused(self, params):
        side = self._side()
        side.confused[1] = True
        assert side.classify(params)[1]

    def test_classify_flags_too_small(self, params):
        side = self._side()
        side.pool_departed[[3, 4]] = True  # group 1 empties
        assert side.classify(params)[1]


class TestMeasureQf:
    def test_blue_pair_qf_zero(self, params):
        pair, rng = make_pair(pf=0.0)
        q1, q2 = measure_qf(pair, params, 500, rng)
        assert q1 == 0.0 and q2 == 0.0

    def test_qf_increases_with_red(self, params):
        pair, rng = make_pair(pf=0.15, seed=6)
        q1, q2 = measure_qf(pair, params, 1000, rng)
        assert q1 > 0.05 and q2 > 0.05
