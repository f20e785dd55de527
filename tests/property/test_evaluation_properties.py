"""Property-based tests: search-evaluation and theory-bound invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.regimes import epoch_map_analysis, iterate_epoch_map
from repro.analysis.theory import bad_group_probability, union_bound_failure
from repro.core.group_graph import GroupGraph
from repro.core.params import SystemParams
from repro.inputgraph import make_input_graph

_H = make_input_graph("chord", np.random.default_rng(7).random(128))
_PARAMS = SystemParams(n=128, seed=0)

red_masks = st.lists(st.booleans(), min_size=128, max_size=128)
queries = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=127),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False),
    ),
    min_size=1,
    max_size=6,
)


@given(red=red_masks, qs=queries)
@settings(max_examples=40, deadline=None)
def test_more_red_never_helps(red, qs):
    """Search success is antitone in the red set: adding red groups can
    only turn successes into failures, never the reverse."""
    red_arr = np.asarray(red, dtype=bool)
    src = np.array([q[0] for q in qs])
    tgt = np.array([q[1] for q in qs])
    batch = _H.route_many(src, tgt)
    gg_some = GroupGraph(_H, _PARAMS, red=red_arr)
    gg_none = GroupGraph(_H, _PARAMS, red=np.zeros(128, dtype=bool))
    ev_some = gg_some.evaluate(batch)
    ev_none = gg_none.evaluate(batch)
    assert not (ev_some.delivered & ~ev_none.delivered).any()


@given(red=red_masks, qs=queries)
@settings(max_examples=40, deadline=None)
def test_search_path_prefix_of_route(red, qs):
    """The search-path mask is always a prefix of the valid positions and
    includes the first red group when the search fails."""
    red_arr = np.asarray(red, dtype=bool)
    src = np.array([q[0] for q in qs])
    tgt = np.array([q[1] for q in qs])
    batch = _H.route_many(src, tgt)
    gg = GroupGraph(_H, _PARAMS, red=red_arr)
    ev = gg.evaluate(batch)
    path_mask = ev.search_path_mask()
    for i in range(len(qs)):
        mask = path_mask[i]
        on = np.flatnonzero(mask)
        assert on.size > 0
        assert np.array_equal(on, np.arange(on.size))  # contiguous prefix
        if ev.corrupted[i]:
            first = ev.first_blocked[i]
            assert mask[first]
            assert red_arr[batch.paths[i, first]]


@given(red=red_masks, qs=queries)
@settings(max_examples=30, deadline=None)
def test_include_source_only_relaxes(red, qs):
    """Dropping the source from the red check can only add successes."""
    red_arr = np.asarray(red, dtype=bool)
    src = np.array([q[0] for q in qs])
    tgt = np.array([q[1] for q in qs])
    batch = _H.route_many(src, tgt)
    gg = GroupGraph(_H, _PARAMS, red=red_arr)
    strict = gg.evaluate(batch, include_source=True)
    relaxed = gg.evaluate(batch, include_source=False)
    assert not (strict.delivered & ~relaxed.delivered).any()


@given(
    size=st.integers(min_value=1, max_value=64),
    beta=st.floats(min_value=0.01, max_value=0.3),
    thr=st.floats(min_value=0.31, max_value=0.49),
)
def test_bad_group_probability_is_probability(size, beta, thr):
    p = bad_group_probability(size, beta, thr)
    assert 0.0 <= p <= 1.0


@given(
    pf=st.floats(min_value=0.0, max_value=1.0),
    d=st.floats(min_value=0.0, max_value=100.0),
)
def test_union_bound_clamps(pf, d):
    u = union_bound_failure(pf, d)
    assert 0.0 <= u <= 1.0
    assert u <= pf * d + 1e-12 or u == 1.0


@given(
    n_exp=st.integers(min_value=10, max_value=30),
    beta=st.floats(min_value=0.02, max_value=0.15),
    m=st.integers(min_value=4, max_value=64),
)
@settings(max_examples=50, deadline=None)
def test_epoch_map_trajectory_bounded(n_exp, beta, m):
    """Trajectories of the epoch map stay in [0, 1] and, when the analysis
    says stable, converge to the predicted fixed point."""
    params = SystemParams(n=2**n_exp, beta=beta, seed=0)
    traj = iterate_epoch_map(params, epochs=20, dual=True, m=m)
    assert all(0.0 <= p <= 1.0 for p in traj)
    rep = epoch_map_analysis(params, m=m)
    if rep.stable:
        assert traj[-1] == pytest.approx(rep.fixed_point, rel=0.05)
