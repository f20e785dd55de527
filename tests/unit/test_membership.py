"""Unit tests: §III-A new-graph construction (repro.core.membership)."""

import numpy as np
import pytest

from repro.core.membership import (
    EpochPair,
    GraphSide,
    _any_per_row,
    _distinct_per_group,
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


class TestDistinctPerGroup:
    """The row-sort composition equals the serial path's np.unique loop."""

    POOL = 40  # candidates lie in [0, POOL); POOL is the sentinel

    @staticmethod
    def _unique_loop(cand, selected):
        rows = [np.unique(c[s]) for c, s in zip(cand, selected)]
        return np.concatenate(rows), np.array([r.size for r in rows])

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_matches_unique_loop(self, dtype):
        rng = np.random.default_rng(11)
        cand = rng.integers(0, self.POOL, (30, 9)).astype(dtype)
        selected = rng.random(cand.shape) < 0.6
        cand[2], selected[2] = 7, True                # one ID in every slot
        cand[3], selected[3] = self.POOL - 1, True    # the top ID, repeated
        cand[4, ::2], selected[4] = 5, rng.random(9) < 0.5
        selected[5] = False                           # nothing selected
        flat, counts = _distinct_per_group(cand, selected, self.POOL)
        want_flat, want_counts = self._unique_loop(cand, selected)
        assert flat.dtype == dtype
        assert np.array_equal(flat, want_flat)
        assert np.array_equal(counts, want_counts)
        assert counts[2] == counts[3] == 1 and counts[5] == 0
        assert not (flat == self.POOL).any()

    @pytest.mark.parametrize("shape", [(6, 5), (6, 0), (0, 5)])
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_empty_selection_is_int64(self, shape, dtype):
        cand = np.zeros(shape, dtype=dtype)
        flat, counts = _distinct_per_group(
            cand, np.zeros(shape, dtype=bool), self.POOL
        )
        assert flat.dtype == np.int64 and flat.size == 0
        assert np.array_equal(counts, np.zeros(shape[0], dtype=np.int64))


class TestAnyPerRow:
    """The segment OR equals ``logical_or.at`` over repeated row owners."""

    @staticmethod
    def _owner_loop(indptr, flags):
        deg = np.diff(indptr)
        out = np.zeros(deg.size, dtype=bool)
        np.logical_or.at(out, np.repeat(np.arange(deg.size), deg), flags)
        return out

    @pytest.mark.parametrize("fill", ["random", "none", "all"])
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_matches_owner_loop(self, fill, dtype):
        rng = np.random.default_rng(5)
        deg = rng.integers(0, 4, 40)
        deg[[0, 1, 17, 38, 39]] = 0       # empty rows at both ends and inside
        deg[20] = 1
        indptr = np.zeros(deg.size + 1, dtype=dtype)
        np.cumsum(deg, out=indptr[1:])
        flags = {
            "random": rng.random(int(indptr[-1])) < 0.3,
            "none": np.zeros(int(indptr[-1]), dtype=bool),
            "all": np.ones(int(indptr[-1]), dtype=bool),
        }[fill]
        got = _any_per_row(indptr, flags)
        assert got.dtype == bool
        assert np.array_equal(got, self._owner_loop(indptr, flags))
        assert not got[deg == 0].any()

    @pytest.mark.parametrize("indptr, flags", [
        ([0, 0], []), ([0, 3], [False, False, False]), ([0, 2], [False, True]),
        ([0], []), ([0, 0, 0], []),
    ])
    def test_tiny_rows(self, indptr, flags):
        indptr = np.array(indptr, dtype=np.int64)
        flags = np.array(flags, dtype=bool)
        assert np.array_equal(
            _any_per_row(indptr, flags), self._owner_loop(indptr, flags)
        )


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
