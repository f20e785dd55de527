"""Property-based tests: group classification and majority invariants."""

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.baselines.logn_groups import build_logn_static
from repro.core.groups import GroupSet, classify_groups, composition_bad
from repro.core.membership import GraphSide
from repro.core.params import SystemParams
from repro.idspace.ring import Ring
from repro.inputgraph import make_input_graph


@st.composite
def group_instances(draw):
    """A single group over a small ring plus a bad mask."""
    n_ids = draw(st.integers(min_value=4, max_value=24))
    size = draw(st.integers(min_value=1, max_value=n_ids))
    members = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_ids - 1),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    bad_bits = draw(st.lists(st.booleans(), min_size=n_ids, max_size=n_ids))
    return n_ids, np.asarray(members), np.asarray(bad_bits, dtype=bool)


def make_groupset(n_ids, members):
    return GroupSet(
        np.array([0]), np.array([0, members.size]), members, n_ids
    )


PARAMS = SystemParams(n=512, beta=0.05, seed=0)


@given(inst=group_instances())
@settings(max_examples=100)
def test_adding_bad_member_never_helps(inst):
    """Classification is monotone: flipping a good member to bad can only
    keep or worsen the verdict."""
    n_ids, members, bad = inst
    gs = make_groupset(n_ids, members)
    before = classify_groups(gs, bad, PARAMS, min_size=1).is_bad[0]
    good_members = [m for m in members if not bad[m]]
    if good_members:
        bad2 = bad.copy()
        bad2[good_members[0]] = True
        after = classify_groups(gs, bad2, PARAMS, min_size=1).is_bad[0]
        assert after or not before


@given(inst=group_instances())
@settings(max_examples=100)
def test_bad_fraction_in_unit_range(inst):
    n_ids, members, bad = inst
    gs = make_groupset(n_ids, members)
    q = classify_groups(gs, bad, PARAMS, min_size=1)
    assert 0.0 <= q.bad_fraction[0] <= 1.0


@given(inst=group_instances())
@settings(max_examples=100)
def test_bad_counts_match_mask(inst):
    n_ids, members, bad = inst
    gs = make_groupset(n_ids, members)
    assert gs.bad_counts(bad)[0] == bad[members].sum()


@given(
    sizes=st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=12)
)
def test_groupset_csr_roundtrip(sizes):
    """Arbitrary CSR layouts keep per-group slices consistent."""
    indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(sizes)
    total = int(indptr[-1])
    members = np.arange(total) % 16 if total else np.empty(0, dtype=np.int64)
    gs = GroupSet(np.arange(len(sizes)), indptr, members, 16)
    assert list(gs.sizes()) == sizes
    assert sum(gs.members_of(g).size for g in range(len(sizes))) == total


# -- the invariant a blue group rests on --------------------------------------
# SystemParams accepts only thresholds (1+delta)beta < 1/2, so a group whose
# bad members are not a strict minority (2 * bad >= size) must be bad, on
# every surface that colours groups from their composition.  That is what
# lets GroupGraph.evaluate read the red mask alone.


@st.composite
def accepted_params(draw, n=64):
    """Any beta, bad-member threshold and size floor SystemParams accepts."""
    beta = draw(st.floats(min_value=0.001, max_value=0.499))
    thr = draw(st.floats(min_value=0.0, max_value=0.5, exclude_max=True))
    d1 = draw(st.floats(min_value=0.0, max_value=8.0))
    try:
        return SystemParams(n=n, beta=beta, delta=thr / beta - 1.0, d1=d1)
    except ValueError:  # rounding put (1 + delta) * beta at 1/2
        reject()


# (size, bad) pairs whose bad members are not a strict minority
non_minority = st.integers(min_value=0, max_value=40).flatmap(
    lambda size: st.tuples(
        st.just(size), st.integers(min_value=(size + 1) // 2, max_value=size)
    )
)


@given(params=accepted_params(), min_size=st.integers(0, 64),
       groups=st.lists(non_minority, min_size=1, max_size=20))
def test_rule_marks_every_non_minority_group_bad(params, min_size, groups):
    sizes = np.array([g[0] for g in groups], dtype=np.int64)
    n_bad = np.array([g[1] for g in groups], dtype=np.int64)
    is_bad, frac = composition_bad(
        sizes, n_bad, min_size, params.bad_member_threshold
    )
    assert is_bad.all()
    assert (frac >= 0.5).all()


@given(params=accepted_params(), min_size=st.integers(0, 64),
       groups=st.lists(non_minority, min_size=1, max_size=20))
def test_classify_groups_marks_every_non_minority_group_bad(
    params, min_size, groups
):
    # group g owns a block of distinct pool IDs, its first `bad` ones bad
    sizes = [g[0] for g in groups]
    indptr = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    pool = int(indptr[-1])
    bad = np.zeros(pool, dtype=bool)
    for (size, n_bad), start in zip(groups, indptr[:-1]):
        bad[start:start + n_bad] = True
    gs = GroupSet(np.arange(len(groups)), indptr, np.arange(pool), pool)
    q = classify_groups(gs, bad, params, min_size=min_size)
    assert q.is_bad.all()


@given(
    params=accepted_params(),
    groups=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20)),
        min_size=1, max_size=12,
    ),
)
def test_graph_side_marks_non_minority_groups_bad_after_departures(
    params, groups
):
    # per group: good members, bad members, good departures (capped)
    good = [g[0] for g in groups]
    indptr = np.concatenate([[0], np.cumsum(good)]).astype(np.int64)
    departed = np.zeros(int(indptr[-1]), dtype=bool)
    for (n_good, _, gone), start in zip(groups, indptr[:-1]):
        departed[start:start + min(gone, n_good)] = True
    side = GraphSide(
        good_indptr=indptr,
        good_members=np.arange(int(indptr[-1])),
        n_bad=np.array([g[1] for g in groups], dtype=np.int64),
        confused=np.zeros(len(groups), dtype=bool),
        pool_departed=departed,
    )
    size_now = side.good_remaining() + side.n_bad
    red = side.classify(params)
    assert red[2 * side.n_bad >= size_now].all()


@given(params=accepted_params(), seed=st.integers(0, 2**31),
       frac_bad=st.floats(min_value=0.0, max_value=1.0),
       size_multiplier=st.floats(min_value=0.1, max_value=2.0))
@settings(max_examples=30, deadline=None)
def test_logn_baseline_marks_non_minority_groups_red(
    params, seed, frac_bad, size_multiplier
):
    rng = np.random.default_rng(seed)
    H = make_input_graph("chord", rng.random(params.n))
    bad = rng.random(params.n) < frac_bad
    bl = build_logn_static(H, params, bad, rng, size_multiplier=size_multiplier)
    sizes = bl.groups.sizes()
    assert bl.group_graph.red[2 * bl.groups.bad_counts(bad) >= sizes].all()
