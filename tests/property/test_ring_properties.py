"""Property-based tests: unit-ring invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.idspace.ring import Ring, cw_dist, cw_dist_many, in_cw_interval

points = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)
id_arrays = hnp.arrays(
    np.float64,
    st.integers(min_value=2, max_value=40),
    elements=points,
    unique=True,
)


@given(a=points, b=points)
def test_cw_dist_range(a, b):
    d = cw_dist(a, b)
    assert 0.0 <= d < 1.0


@given(a=points, b=points)
def test_cw_dist_antisymmetry(a, b):
    if a != b:
        assert cw_dist(a, b) + cw_dist(b, a) == 1.0 or abs(
            cw_dist(a, b) + cw_dist(b, a) - 1.0
        ) < 1e-12


@given(a=points, b=points, c=points)
def test_cw_dist_path_through_midpoint(a, b, c):
    """Going a->b->c clockwise covers a->c plus possibly full laps."""
    total = cw_dist(a, b) + cw_dist(b, c)
    direct = cw_dist(a, c)
    laps = total - direct
    assert abs(laps - round(laps)) < 1e-9


@given(a=points, b=points)
def test_cw_dist_many_matches_scalar(a, b):
    assert cw_dist_many(a, b) == cw_dist(a, b)


@given(x=points, s=points, e=points)
def test_interval_membership_consistent_with_distance(x, s, e):
    inside = bool(in_cw_interval(x, s, e))
    d_x, d_e = cw_dist(s, x), cw_dist(s, e)
    assert inside == (0 < d_x <= d_e)


@given(ids=id_arrays, point=points)
@settings(max_examples=60)
def test_successor_is_first_clockwise(ids, point):
    ring = Ring(ids)
    suc = ring.successor(point)
    d_suc = cw_dist(point, suc)
    # no other ID lies strictly between point and its successor
    for other in ring.ids:
        if other != suc:
            assert not (0 <= cw_dist(point, float(other)) < d_suc)


@given(ids=id_arrays)
@settings(max_examples=60)
def test_ids_are_their_own_successors(ids):
    ring = Ring(ids)
    for v in ring.ids:
        assert ring.successor(float(v)) == v


@given(ids=id_arrays)
@settings(max_examples=60)
def test_arcs_partition_the_ring(ids):
    ring = Ring(ids)
    arcs = ring.arc_lengths()
    assert (arcs >= 0).all()
    assert abs(arcs.sum() - 1.0) < 1e-9


@given(ids=id_arrays, point=points)
@settings(max_examples=60)
def test_successor_scalar_vector_agree(ids, point):
    ring = Ring(ids)
    assert ring.successor_index_many(np.array([point]))[0] == ring.successor_index(
        point
    )
