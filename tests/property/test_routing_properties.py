"""Property-based tests: routing invariants across all topologies."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.idspace.ring import Ring
from repro.inputgraph import PADDING, TOPOLOGIES, InputGraph, make_input_graph

# Build one modest graph per topology once; hypothesis drives the queries.
_RINGS = Ring(np.random.default_rng(99).random(96))
_GRAPHS = {name: make_input_graph(name, _RINGS) for name in TOPOLOGIES}

queries = st.tuples(
    st.integers(min_value=0, max_value=_RINGS.n - 1),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False),
)


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
@given(q=queries)
@settings(max_examples=40, deadline=None)
def test_route_resolves_to_successor(name, q):
    src, tgt = q
    g = _GRAPHS[name]
    path, ok = g.route(src, tgt)
    assert ok
    assert path[0] == src
    assert path[-1] == g.ring.successor_index(tgt)


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
@given(q=queries)
@settings(max_examples=40, deadline=None)
def test_no_padding_inside_path(name, q):
    src, tgt = q
    g = _GRAPHS[name]
    batch = g.route_many(np.array([src]), np.array([tgt]))
    row = batch.paths[0]
    seen_pad = False
    for v in row:
        if v == PADDING:
            seen_pad = True
        else:
            assert not seen_pad, "padding must be a suffix"


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
@given(q=queries)
@settings(max_examples=30, deadline=None)
def test_no_consecutive_duplicates(name, q):
    src, tgt = q
    g = _GRAPHS[name]
    path, _ = g.route(src, tgt)
    assert all(path[i] != path[i + 1] for i in range(len(path) - 1))


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
@given(
    qs=st.lists(queries, min_size=1, max_size=8),
)
@settings(max_examples=20, deadline=None)
def test_batch_matches_single(name, qs):
    """route_many on a batch equals route() query by query."""
    g = _GRAPHS[name]
    src = np.array([q[0] for q in qs])
    tgt = np.array([q[1] for q in qs])
    batch = g.route_many(src, tgt)
    for i, (s, t) in enumerate(qs):
        single, ok = g.route(s, t)
        row = batch.paths[i]
        assert np.array_equal(row[row != PADDING], single)


# -- Chord against a scalar router written from the definition ---------------


def _reference_route(g, source, key):
    """Greedy Chord routing, one query, straight from the definition.

    A key in ``(current, successor]`` goes to its responsible ID; any other
    key goes to the finger (or successor) whose clockwise distance is the
    largest one strictly inside ``(current, key)``.  Shares no code with
    ``ChordGraph.route_many`` beyond the finger table and the distance
    arithmetic.
    """
    ids = g.ring.ids
    fingers = g.finger_table()
    m = g.finger_count
    dest = g.ring.successor_index(key)
    path = [source]
    cur = source
    for _ in range(4 * m + 8):
        if cur == dest:
            break
        d_key = (key - ids[cur]) % 1.0
        if 0.0 < d_key <= (ids[fingers[cur, m]] - ids[cur]) % 1.0:
            nxt = dest
        else:
            nxt, best = None, 0.0
            for f in fingers[cur, : m + 1]:
                d = (ids[f] - ids[cur]) % 1.0
                if 0.0 < d < d_key and d > best:
                    nxt, best = int(f), d
        path.append(nxt)
        cur = nxt
    return path, cur == dest, dest


@st.composite
def chord_cases(draw):
    """A ring (uniform or clustered, some IDs one ulp apart) and queries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 300))
    if draw(st.booleans()):
        centres = rng.random(draw(st.integers(1, 3)))
        spread = 10.0 ** -draw(st.integers(2, 14))
        ids = rng.choice(centres, n) + rng.normal(0.0, spread, n)
    else:
        ids = rng.random(n)
    ids = np.mod(ids, 1.0)
    pairs = ids[: draw(st.integers(0, n // 4))]
    ids = np.concatenate([ids, np.nextafter(pairs, 1.0)])
    ids = np.unique(ids[ids < 1.0])
    q = 48
    sources = rng.integers(0, ids.size, q)
    keys = rng.random(q)
    # a third of the keys sit on IDs, half of those searched for from the
    # very next ID (a route almost all the way round)
    on = rng.integers(0, ids.size, q // 3)
    keys[: on.size] = ids[on]
    sources[: on.size // 2] = (on[: on.size // 2] + 1) % ids.size
    dtype = draw(st.sampled_from(["int32", "int64"]))
    return ids, dtype, sources, keys


# Two IDs one ulp apart, searched for the lower from the upper: the key
# distance rounds to exactly 1.0 and the first finger is the right hop.
_ULP_LO = 0.1
_ULP_RING = np.array([_ULP_LO, np.nextafter(_ULP_LO, 1.0), 0.35, 0.6, 0.85])
# From 0.1 the first finger aims at 0.6, past the last ID, and wraps back to
# 0.1 itself; the key one ulp below 0.6 is still far enough to try it.
_SELF_KEY = np.nextafter(0.6, 0.0)
_SELF_RING = np.array([0.1, 0.3, _SELF_KEY])


@given(case=chord_cases())
@example(case=(_ULP_RING, "int32", np.array([1, 1, 3]), np.array([_ULP_LO] * 3)))
@example(case=(_SELF_RING, "int64", np.array([0, 0]), np.array([_SELF_KEY, 0.5])))
@settings(max_examples=60, deadline=None)
def test_chord_routes_match_reference(case):
    ids, dtype, sources, keys = case
    g = make_input_graph("chord", ids, index_dtype=dtype)
    batch = g.route_many(sources, keys)
    for i, (s, k) in enumerate(zip(sources, keys)):
        path, ok, dest = _reference_route(g, int(s), float(k))
        row = batch.paths[i]
        assert row[row != PADDING].tolist() == path
        assert bool(batch.resolved[i]) == ok
        assert int(batch.responsible[i]) == dest


@given(case=chord_cases(), red_kind=st.sampled_from(["none", "all", "random"]))
@example(
    case=(_ULP_RING, "int64", np.array([1, 0, 4]), np.array([_ULP_LO, 0.7, 0.2])),
    red_kind="random",
)
@settings(max_examples=40, deadline=None)
def test_chord_search_fail_matches_base_default(case, red_kind):
    ids, dtype, sources, keys = case
    g = make_input_graph("chord", ids, index_dtype=dtype)
    red = {
        "none": np.zeros(g.n, dtype=bool),
        "all": np.ones(g.n, dtype=bool),
        "random": np.random.default_rng(g.n).random(g.n) < 0.3,
    }[red_kind]
    fail, hops = g.search_fail(sources, keys, red)
    base_fail, base_hops = InputGraph.search_fail(g, sources, keys, red)
    np.testing.assert_array_equal(fail, base_fail)
    assert hops == base_hops
