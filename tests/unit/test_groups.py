"""Unit tests: group construction and classification (repro.core.groups)."""

import numpy as np
import oracles
import pytest

import repro.idspace.ring as ring_module
from repro.core.groups import (
    GroupSet,
    _points_to_csr,
    build_groups,
    build_groups_fast,
    classify_groups,
)
from repro.core.params import SystemParams
from repro.idspace.hashing import RandomOracle
from repro.idspace.ring import Ring, row_blocks


@pytest.fixture
def ring():
    return Ring(np.random.default_rng(1).random(256))


@pytest.fixture
def params():
    return SystemParams(n=256, beta=0.05, seed=0)


class TestGroupSet:
    def _make(self):
        leaders = np.array([0, 1, 2])
        indptr = np.array([0, 2, 2, 5])
        members = np.array([3, 4, 0, 1, 2])
        return GroupSet(leaders, indptr, members, n_ids=6)

    def test_members_of(self):
        gs = self._make()
        assert list(gs.members_of(0)) == [3, 4]
        assert list(gs.members_of(1)) == []
        assert list(gs.members_of(2)) == [0, 1, 2]

    def test_sizes(self):
        assert list(self._make().sizes()) == [2, 0, 3]

    def test_membership_counts(self):
        counts = self._make().membership_counts()
        assert counts[3] == 1 and counts[5] == 0

    def test_bad_counts_with_empty_group(self):
        gs = self._make()
        bad = np.array([True, False, False, True, False, False])
        counts = gs.bad_counts(bad)
        assert list(counts) == [1, 0, 1]

    def test_bad_counts_with_empty_groups_at_both_ends(self):
        # a row's last member lies where the empty rows after it start
        gs = GroupSet(np.array([0, 1, 2, 3]), np.array([0, 0, 3, 3, 3]),
                      np.array([5, 1, 4]), n_ids=6)
        bad = np.array([False, True, False, False, True, True])
        counts = gs.bad_counts(bad)
        assert counts.dtype == np.int64
        assert list(counts) == [0, 3, 0, 0]

    def test_indptr_validation(self):
        with pytest.raises(ValueError):
            GroupSet(np.array([0]), np.array([0, 1, 2]), np.array([0, 1]), 4)

    def test_len(self):
        assert len(self._make()) == 3


class TestBuildGroups:
    def test_oracle_build_deterministic(self, ring, params):
        h = RandomOracle("h1", 9)
        a = build_groups(ring, params, h)
        b = build_groups(ring, params, h)
        assert np.array_equal(a.member_idx, b.member_idx)

    def test_members_are_successors_of_oracle_points(self, ring, params):
        h = RandomOracle("h1", 9)
        gs = build_groups(ring, params, h, leaders=np.array([5]))
        pts = h.many(float(ring.ids[5]), params.group_solicit_size)
        expect = np.unique(ring.successor_index_many(pts))
        assert np.array_equal(gs.members_of(0), expect)

    def test_sizes_within_window(self, ring, params):
        gs = build_groups_fast(ring, params, np.random.default_rng(0))
        sizes = gs.sizes()
        assert (sizes <= params.group_solicit_size).all()
        assert sizes.mean() > 0.5 * params.group_solicit_size

    def test_fast_build_distribution_matches_oracle(self, ring, params):
        """Mean group size and membership distribution agree between the
        verifiable build and the sampling shortcut."""
        h = RandomOracle("h1", 2)
        slow = build_groups(ring, params, h)
        fast = build_groups_fast(ring, params, np.random.default_rng(2))
        assert slow.sizes().mean() == pytest.approx(fast.sizes().mean(), rel=0.1)
        assert slow.membership_counts().mean() == pytest.approx(
            fast.membership_counts().mean(), rel=0.1
        )

    def test_custom_solicit(self, ring, params):
        gs = build_groups_fast(ring, params, np.random.default_rng(0), solicit=5)
        assert gs.sizes().max() <= 5

    def test_custom_leaders(self, ring, params):
        h = RandomOracle("h1", 9)
        gs = build_groups(ring, params, h, leaders=np.array([3, 7]))
        assert gs.n_groups == 2


class TestKernelEquivalence:
    """The one-pass CSR kernel must be byte-identical to the per-leader
    ``np.unique`` loop (``tests/oracles.py``)."""

    def _assert_same(self, a, b):
        assert np.array_equal(a.leaders, b.leaders)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.member_idx, b.member_idx)
        assert a.indptr.dtype == b.indptr.dtype
        assert a.member_idx.dtype == b.member_idx.dtype
        for x, y in ((a.indptr, b.indptr), (a.member_idx, b.member_idx)):
            assert x.flags.writeable == y.flags.writeable
        assert a.n_ids == b.n_ids

    def test_oracle_build_kernels_identical(self, ring, params, oracle_loops):
        h = RandomOracle("h1", 4)
        kernel = build_groups(ring, params, h)
        with oracle_loops():
            loop = build_groups(ring, params, h)
        self._assert_same(kernel, loop)

    def test_fast_build_kernels_identical(self, ring, params):
        self._assert_same(
            build_groups_fast(ring, params, np.random.default_rng(5)),
            oracles.build_groups_fast(ring, params, np.random.default_rng(5)),
        )

    def test_fast_build_kernels_consume_same_stream(self, ring, params):
        """Downstream draws must match the one-draw loop's."""
        r1 = np.random.default_rng(5)
        r2 = np.random.default_rng(5)
        build_groups_fast(ring, params, r1)
        oracles.build_groups_fast(ring, params, r2)
        assert r1.random() == r2.random()

    def test_kernels_identical_with_custom_solicit_and_subset(self, ring, params):
        for solicit in (1, 3, 17):
            self._assert_same(
                build_groups_fast(ring, params, np.random.default_rng(0),
                                  n_groups=10, solicit=solicit),
                oracles.build_groups_fast(ring, params,
                                          np.random.default_rng(0),
                                          n_groups=10, solicit=solicit),
            )

    BLOCK = 4  # rows per block under test

    @pytest.mark.parametrize("solicit", [0, 1, 17])
    @pytest.mark.parametrize("n_groups", [0, BLOCK - 1, BLOCK, BLOCK + 1,
                                          3 * BLOCK + 2, 300])
    def test_fast_build_blocks_equal_one_draw(self, monkeypatch, block_threads,
                                              ring, params, n_groups, solicit):
        monkeypatch.setattr(ring_module, "_BLOCK_POINTS",
                            self.BLOCK * max(1, solicit))
        # every block, however small, takes the bucket LUT path
        monkeypatch.setattr(Ring, "_BULK_THRESHOLD", 1)
        r1 = np.random.default_rng(8)
        r2 = np.random.default_rng(8)
        self._assert_same(
            build_groups_fast(ring, params, r1, n_groups=n_groups,
                              solicit=solicit),
            oracles.build_groups_fast(ring, params, r2, n_groups=n_groups,
                                      solicit=solicit),
        )
        assert r1.random() == r2.random()

    @pytest.mark.parametrize("policy", ["auto", "int64"])
    @pytest.mark.parametrize("n_groups", [None, 100, 700])
    def test_leaders_stored_at_the_ring_index_dtype(self, params, policy,
                                                    n_groups):
        ring = Ring(np.random.default_rng(1).random(256), index_dtype=policy)
        gs = build_groups_fast(ring, params, np.random.default_rng(0),
                               n_groups=n_groups)
        ng = ring.n if n_groups is None else n_groups
        assert gs.leaders.dtype == ring.index_dtype
        assert np.array_equal(gs.leaders, np.arange(ng) % ring.n)
        assert build_groups(ring, params, RandomOracle("h1", 9)
                            ).leaders.dtype == ring.index_dtype

    def test_oracle_subset_leaders_kernels_identical(self, ring, params,
                                                     oracle_loops):
        h = RandomOracle("h2", 11)
        leaders = np.array([0, 5, 17, 255])
        kernel = build_groups(ring, params, h, leaders=leaders)
        with oracle_loops():
            loop = build_groups(ring, params, h, leaders=leaders)
        self._assert_same(kernel, loop)


@pytest.mark.usefixtures("block_threads")
@pytest.mark.parametrize("block_threads", [1, 2], indirect=True)
@pytest.mark.parametrize("policy", ["auto", "int64"])
class TestPointsToCsr:
    """``_points_to_csr``'s flat dedup against the per-leader ``np.unique``
    loop, in blocks of several rows (8 on one thread, 4 on two)."""

    def _csr(self, monkeypatch, ring, pts):
        ng, m = pts.shape
        monkeypatch.setattr(ring_module, "_BLOCK_POINTS", 8 * m)
        monkeypatch.setattr(Ring, "_BULK_THRESHOLD", 1)  # take the LUT
        indptr, members = _points_to_csr(
            ring, (pts[rows] for rows in row_blocks(ng, m)), ng, m)
        expect = oracles.points_to_csr(ring, [pts], ng, m)
        for got, want in zip((indptr, members), expect):
            assert got.dtype == want.dtype == ring.index_dtype
            assert np.array_equal(got, want)
        return indptr, members

    def test_a_row_may_start_with_the_member_the_last_one_ends_with(
            self, monkeypatch, policy):
        # row r holds members r and r + 1, each twice: row r + 1 starts
        # with the member row r ends with, which is no repeat
        ring = Ring(np.linspace(0.01, 0.97, 32), index_dtype=policy)
        r = np.arange(20)[:, None]
        pts = ring.ids[r + np.array([1, 0, 1, 0])]
        indptr, members = self._csr(monkeypatch, ring, pts)
        assert np.array_equal(np.diff(indptr), np.full(20, 2))
        assert np.array_equal(members, np.column_stack([r, r + 1]).ravel())

    def test_rows_that_repeat_one_member_throughout(self, monkeypatch,
                                                    policy):
        # two IDs and m = 21: rows inside one arc keep one member, and
        # runs of such rows start with the member the last row ended with
        ring = Ring([0.25, 0.75], index_dtype=policy)
        u = np.random.default_rng(3).random((30, 21))
        pts = np.concatenate([0.3 + 0.4 * u[:10],   # arc of ID 1
                              0.8 + 0.2 * u[10:20],  # wraps to ID 0
                              u[20:]])               # both
        indptr, members = self._csr(monkeypatch, ring, pts)
        assert np.array_equal(np.diff(indptr), [1] * 20 + [2] * 10)
        assert np.array_equal(members, [1] * 10 + [0] * 10 + [0, 1] * 10)


class TestClassify:
    def test_no_bad_ids_all_good(self, ring, params):
        gs = build_groups_fast(ring, params, np.random.default_rng(0))
        q = classify_groups(gs, np.zeros(ring.n, dtype=bool), params)
        assert q.bad_group_fraction == 0.0

    def test_all_bad_ids_all_bad(self, ring, params):
        gs = build_groups_fast(ring, params, np.random.default_rng(0))
        q = classify_groups(gs, np.ones(ring.n, dtype=bool), params)
        assert q.bad_group_fraction == 1.0

    def test_threshold_boundary(self, params):
        # group of exactly 6 members, threshold 1/3 => 2 bad ok, 3 bad bad
        ring = Ring(np.linspace(0.05, 0.95, 10))
        leaders = np.array([0])
        indptr = np.array([0, 6])
        members = np.arange(6)
        gs = GroupSet(leaders, indptr, members, ring.n)
        bad2 = np.zeros(ring.n, dtype=bool)
        bad2[:2] = True
        q2 = classify_groups(gs, bad2, params, min_size=2)
        assert not q2.is_bad[0]
        bad3 = np.zeros(ring.n, dtype=bool)
        bad3[:3] = True
        q3 = classify_groups(gs, bad3, params, min_size=2)
        assert q3.is_bad[0]

    def test_min_size_rule(self, params):
        ring = Ring(np.linspace(0.05, 0.95, 10))
        gs = GroupSet(np.array([0]), np.array([0, 1]), np.array([0]), ring.n)
        q = classify_groups(gs, np.zeros(ring.n, dtype=bool), params, min_size=3)
        assert q.is_bad[0]  # too small despite zero bad members

    def test_override_threshold(self, params):
        ring = Ring(np.linspace(0.05, 0.95, 10))
        gs = GroupSet(np.array([0]), np.array([0, 4]), np.arange(4), ring.n)
        bad = np.zeros(ring.n, dtype=bool)
        bad[0] = True  # 25% bad
        strict = classify_groups(gs, bad, params, min_size=2, threshold=0.2)
        lax = classify_groups(gs, bad, params, min_size=2, threshold=0.3)
        assert strict.is_bad[0] and not lax.is_bad[0]

    def test_bad_fraction_reported(self, params):
        ring = Ring(np.linspace(0.05, 0.95, 10))
        gs = GroupSet(np.array([0]), np.array([0, 4]), np.arange(4), ring.n)
        bad = np.zeros(ring.n, dtype=bool)
        bad[:2] = True
        q = classify_groups(gs, bad, params, min_size=2)
        assert q.bad_fraction[0] == pytest.approx(0.5)

    def test_leader_badness_does_not_mark_group(self, ring, params):
        """Per §I-C the classification is by member composition only."""
        gs = build_groups_fast(ring, params, np.random.default_rng(0))
        bad = np.zeros(ring.n, dtype=bool)
        lead = int(gs.leaders[0])
        if lead not in gs.members_of(0):
            bad[lead] = True
            q = classify_groups(gs, bad, params)
            assert not q.is_bad[0]
