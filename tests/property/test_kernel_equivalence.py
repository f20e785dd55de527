"""Property tests: array kernels == reference loops (``tests/oracles.py``).

The load-bearing contract of the static-case kernels: over any
population, topology, seed, and scale, the array kernels must produce

* **byte-identical CSR** group constructions (``leaders``/``indptr``/
  ``member_idx``) to the per-leader loops,
* probe-for-probe identical secure-search verdicts to the scalar search,
* identical :class:`~repro.core.static_case.StaticSearchStats` between the
  per-probe loop and the lockstep batch path,

so no rendered table depends on the batching.
"""

import numpy as np
import oracles
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.group_graph import GroupGraph
from repro.core.groups import build_groups, build_groups_fast, classify_groups
from repro.core.params import SystemParams
from repro.core.secure_routing import SecureRouter
from repro.core.static_case import measure_static_search, synthetic_static_graph
from repro.idspace.hashing import RandomOracle
from repro.idspace.ring import Ring
from repro.inputgraph import make_input_graph


def _same_csr(a, b):
    assert np.array_equal(a.leaders, b.leaders)
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.member_idx, b.member_idx)


@given(
    n=st.integers(min_value=4, max_value=300),
    seed=st.integers(min_value=0, max_value=2**31),
    solicit=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=40, deadline=None)
def test_fast_build_kernels_byte_identical(n, seed, solicit):
    ring = Ring(np.random.default_rng(seed).random(n))
    params = SystemParams(n=max(8, n), seed=0)
    a = build_groups_fast(ring, params, np.random.default_rng(seed),
                          solicit=solicit)
    b = oracles.build_groups_fast(ring, params, np.random.default_rng(seed),
                                  solicit=solicit)
    _same_csr(a, b)


@given(
    n=st.integers(min_value=4, max_value=120),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=15, deadline=None)
def test_oracle_build_kernels_byte_identical(n, seed, oracle_loops):
    ring = Ring(np.random.default_rng(seed).random(n))
    params = SystemParams(n=max(8, n), seed=0)
    oracle = RandomOracle("h1", seed % 1000)
    kernel = build_groups(ring, params, oracle)
    with oracle_loops():
        _same_csr(kernel, build_groups(ring, params, oracle))


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    topology=st.sampled_from(["chord", "debruijn"]),
    pf=st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=20, deadline=None)
def test_search_batch_matches_scalar(seed, topology, pf):
    rng = np.random.default_rng(seed)
    n = 128
    H = make_input_graph(topology, rng.random(n))
    params = SystemParams(n=n, seed=0)
    router = SecureRouter(GroupGraph(H, params, red=rng.random(n) < pf))
    src = rng.integers(0, n, size=40)
    tgt = rng.random(40)
    out = router.search_batch(src, tgt)
    for i in range(src.size):
        scalar = router.search(int(src[i]), float(tgt[i]))
        assert bool(out.delivered[i]) == scalar.delivered
        assert bool(out.corrupted[i]) == scalar.corrupted
        assert int(out.first_blocked[i]) == scalar.first_blocked
        assert int(out.messages[i]) == scalar.messages


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    beta=st.floats(min_value=0.0, max_value=0.25),
)
@settings(max_examples=10, deadline=None)
def test_search_batch_matches_scalar_member_level(seed, beta):
    """Parity also under member-composition (fractional) bad groups."""
    rng = np.random.default_rng(seed)
    n = 96
    H = make_input_graph("chord", rng.random(n))
    params = SystemParams(n=n, seed=0)
    bad = rng.random(n) < beta
    gs = build_groups_fast(H.ring, params, rng)
    q = classify_groups(gs, bad, params)
    router = SecureRouter(GroupGraph(H, params, red=q.is_bad.copy(), groups=gs))
    src = rng.integers(0, n, size=30)
    tgt = rng.random(30)
    out = router.search_batch(src, tgt)
    for i in range(src.size):
        scalar = router.search(int(src[i]), float(tgt[i]))
        assert bool(out.delivered[i]) == scalar.delivered
        assert bool(out.corrupted[i]) == scalar.corrupted
        assert int(out.first_blocked[i]) == scalar.first_blocked


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    pf=st.floats(min_value=0.0, max_value=0.3),
)
@settings(max_examples=10, deadline=None)
def test_measure_static_search_kernels_equal(seed, pf, oracle_loops):
    """The per-probe loop and the batch kernel produce the exact same
    statistics object (all float fields bitwise equal)."""
    rng = np.random.default_rng(seed)
    n = 128
    H = make_input_graph("chord", rng.random(n))
    params = SystemParams(n=n, seed=0)
    gg = synthetic_static_graph(H, params, pf, np.random.default_rng(seed + 1))
    a = measure_static_search(gg, 500, np.random.default_rng(seed + 2))
    with oracle_loops():
        b = measure_static_search(gg, 500, np.random.default_rng(seed + 2))
    assert a == b
