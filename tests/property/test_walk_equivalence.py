"""Property tests: the lockstep routing walks equal the per-query loops.

Distance halving, de Bruijn, Kautz and Viceroy move every query one hop
per NumPy pass (``_walk``); ``tests/oracles.py`` keeps the per-query loops
they replaced.  Each case routes one batch both ways and compares the path
matrices, the resolved flags and responsible IDs, and the ``search_fail``
bits and hop totals.  The rings reach the edge cases: one to five IDs, one
just past the bucket LUT's threshold, 40 IDs one ulp apart, 64 evenly
spaced IDs, and IDs at 0.0 and just below 1.0; keys sit anywhere, on IDs
and one ulp below them.  Lowering the ring-leg cap to 0-2 hops leaves
routes unresolved, so those are compared too.
"""

import functools
import zlib

import numpy as np
import pytest

from repro.inputgraph import distance_halving, make_input_graph, viceroy

WALKS = ["debruijn", "distance-halving", "kautz", "viceroy"]

RINGS = {
    **{f"uniform-{n}": np.random.default_rng(n).random(n)
       for n in (1, 2, 3, 5, 64, 4097)},
    "ulp-40": 0.37 + np.arange(40) * np.spacing(0.37),
    # every distance exact: keys on IDs tie the descent's 2^-l rule
    "dyadic-64": np.arange(64) / 64,
    "edges": np.array([0.0, 1e-17, np.nextafter(1.0, 0.0)]),
}


@functools.lru_cache(maxsize=None)
def _graph(topology: str, ring: str, dtype: str):
    return make_input_graph(topology, RINGS[ring], index_dtype=dtype)


def _seed(*key) -> int:
    return zlib.crc32(repr(key).encode())


@pytest.mark.parametrize("tail", [None, 0, 1, 2])
@pytest.mark.parametrize("dtype", ["int32", "int64"])
@pytest.mark.parametrize("ring", sorted(RINGS))
@pytest.mark.parametrize("topology", WALKS)
def test_walk_equals_per_query_loop(topology, ring, dtype, tail, monkeypatch,
                                    oracle_loops):
    if tail is not None:
        monkeypatch.setattr(distance_halving, "_MAX_TAIL", tail)
        monkeypatch.setattr(viceroy, "_MAX_TAIL", tail)
    g = _graph(topology, ring, dtype)
    rng = np.random.default_rng(_seed(topology, ring, dtype, tail))
    on = rng.choice(g.ring.ids, 16)
    tgt = np.concatenate([rng.random(16), on, np.nextafter(on, 0.0)])
    src = rng.integers(0, g.n, size=tgt.size)
    red = rng.random(g.n) < 0.3
    got = g.route_many(src, tgt)
    fail, hops = g.search_fail(src, tgt, red)
    with oracle_loops():
        want = g.route_many(src, tgt)
        want_fail, want_hops = g.search_fail(src, tgt, red)
    for field in ("paths", "resolved", "responsible"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert np.array_equal(a, b), field
    assert np.array_equal(fail, want_fail) and hops == want_hops
    if tail == 0 and ring == "uniform-4097":
        assert not got.resolved.all()  # the cap really binds

