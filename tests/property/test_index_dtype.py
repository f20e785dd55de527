"""Property tests: index-dtype narrowing is storage-only, never values.

The memory-lean hot path's contract (ROADMAP item 4): ``index_dtype``
narrows *stored* index arrays — ring successor LUTs, CSR
``indptr``/``indices``, routed paths, group member lists — to int32
whenever ``n`` fits, while the int64 policy remains the byte-identity
oracle.  RNG draws, accumulators, and float statistics are never
narrowed, so the two policies must agree **value-for-value** on every
derived quantity:

* the topology's CSR neighbor structure, routed probe batches and
  search fail masks with their hop totals,
* the group construction's member CSR and every search statistic,
* and the chunked probe-streaming path at any window size.

Plus the refusal property: a policy that cannot represent ``n`` must
raise, never silently wrap.
"""

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.groups import build_groups_fast
from repro.core.params import SystemParams
from repro.core.static_case import (
    measure_static_search,
    synthetic_static_graph,
)
from repro.idspace.ring import index_dtype_for
from repro.inputgraph import TOPOLOGIES, make_input_graph


def _graph(topology, n, seed, index_dtype):
    ids = np.random.default_rng(seed).random(n)
    return make_input_graph(topology, ids, index_dtype=index_dtype)


@given(
    topology=st.sampled_from(sorted(TOPOLOGIES)),
    n=st.sampled_from([17, 48, 64, 257]),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=20, deadline=None)
def test_int32_csr_and_routes_match_int64_oracle(topology, n, seed):
    narrow = _graph(topology, n, seed, "int32")
    oracle = _graph(topology, n, seed, "int64")
    assert narrow.ring.index_dtype == np.int32
    assert oracle.ring.index_dtype == np.int64
    n_indptr, n_indices = narrow.neighbor_lists()
    o_indptr, o_indices = oracle.neighbor_lists()
    assert n_indices.dtype == np.int32
    # identical structure, width aside
    np.testing.assert_array_equal(n_indptr.astype(np.int64), o_indptr)
    np.testing.assert_array_equal(n_indices.astype(np.int64), o_indices)
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, n, size=200)
    targets = rng.random(200)
    b32 = narrow.route_many(sources, targets)
    b64 = oracle.route_many(sources, targets)
    np.testing.assert_array_equal(
        b32.paths.astype(np.int64), b64.paths.astype(np.int64)
    )
    np.testing.assert_array_equal(
        b32.responsible.astype(np.int64), b64.responsible.astype(np.int64)
    )
    np.testing.assert_array_equal(b32.resolved, b64.resolved)
    # the fused construction-search path (no paths built on chord)
    red = rng.random(n) < 0.2
    f32, hops32 = narrow.search_fail(sources, targets, red)
    f64, hops64 = oracle.search_fail(sources, targets, red)
    np.testing.assert_array_equal(f32, f64)
    assert hops32 == hops64


@given(
    n=st.sampled_from([32, 64, 128]),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=15, deadline=None)
def test_group_build_and_search_stats_dtype_invariant(n, seed):
    stats = {}
    members = {}
    for policy in ("int32", "int64"):
        H = _graph("chord", n, seed, policy)
        rng = np.random.default_rng(seed)
        params = SystemParams(n=n, seed=seed)
        gs = build_groups_fast(H.ring, params, rng)
        members[policy] = (
            gs.indptr.astype(np.int64), gs.member_idx.astype(np.int64)
        )
        gg = synthetic_static_graph(H, params, 0.05, rng)
        stats[policy] = measure_static_search(gg, 300, rng)
    np.testing.assert_array_equal(members["int32"][0], members["int64"][0])
    np.testing.assert_array_equal(members["int32"][1], members["int64"][1])
    assert stats["int32"] == stats["int64"]


@given(
    n=st.sampled_from([48, 96]),
    seed=st.integers(min_value=0, max_value=2**31),
    probe_chunk=st.sampled_from([1, 13, 100, 299, 300, 10_000]),
)
@settings(max_examples=15, deadline=None)
def test_probe_chunk_streaming_is_bit_equal(n, seed, probe_chunk):
    def run(chunk):
        H = _graph("chord", n, seed, "auto")
        rng = np.random.default_rng(seed)
        params = SystemParams(n=n, seed=seed)
        gg = synthetic_static_graph(H, params, 0.05, rng)
        return measure_static_search(gg, 300, rng, probe_chunk=chunk)

    assert run(probe_chunk) == run(None)


@pytest.mark.parametrize("probe_chunk", [None, 7])
def test_zero_probes_read_as_an_empty_batch(probe_chunk):
    """No probes: nothing failed (X = 0) and no path was walked (NaN
    length and responsibility), whatever the window size."""
    H = _graph("chord", 48, 1, "auto")
    gg = synthetic_static_graph(H, SystemParams(n=48, seed=1), 0.05,
                                np.random.default_rng(1))
    stats = measure_static_search(gg, 0, np.random.default_rng(2),
                                  probe_chunk=probe_chunk)
    assert stats.probes == 0 and stats.failure_rate == 0.0
    assert np.isnan(stats.mean_search_path_len)
    assert np.isnan(stats.max_responsibility)


# Rings a uniform draw never yields: 40 IDs one ulp apart, evenly spaced
# IDs (every distance exact, so points tie), and IDs at 0 and just below 1.
_ULP_40 = 0.37 + np.arange(40) * np.spacing(0.37)
_DYADIC_64 = np.arange(64) / 64
_EDGES = np.array([0.0, 1e-17, np.nextafter(1.0, 0.0)])


@given(
    topology=st.sampled_from(["chord", "distance-halving", "viceroy"]),
    ids=st.builds(
        lambda n, seed: np.random.default_rng(seed).random(n),
        st.sampled_from([1, 2, 3, 17, 64, 257]),
        st.integers(min_value=0, max_value=2**31),
    ),
    index_dtype=st.sampled_from(["int32", "int64"]),
)
@example(topology="viceroy", ids=_ULP_40, index_dtype="int32")
@example(topology="viceroy", ids=_DYADIC_64, index_dtype="int64")
@example(topology="viceroy", ids=_EDGES, index_dtype="int32")
@settings(max_examples=30, deadline=None)
def test_vectorized_neighbor_sets_match_reference_loop(topology, ids,
                                                       index_dtype):
    """The one-pass edge build must be byte-identical to the per-node
    Python loop in ``tests/oracles.py``."""
    H = make_input_graph(topology, ids, index_dtype=index_dtype)
    indptr, indices = H._neighbor_sets()
    loop = {"chord": oracles.chord_neighbor_sets,
            "distance-halving": oracles.distance_halving_neighbor_sets,
            "viceroy": oracles.viceroy_neighbor_sets}
    ref_indptr, ref_indices = loop[topology](H)
    np.testing.assert_array_equal(
        indptr.astype(np.int64), ref_indptr.astype(np.int64)
    )
    np.testing.assert_array_equal(
        indices.astype(np.int64), ref_indices.astype(np.int64)
    )


def test_policy_refuses_unrepresentable_n():
    """int32 cannot hold n > 2^31 - 1: the policy must raise, and auto
    must widen — never silently wrap."""
    big = np.iinfo(np.int32).max + 1
    with pytest.raises(ValueError):
        index_dtype_for(big, "int32")
    assert index_dtype_for(big, "auto") == np.int64
    assert index_dtype_for(big - 1, "auto") == np.int32
    assert index_dtype_for(64, "int32") == np.int32
    assert index_dtype_for(64, "int64") == np.int64
    with pytest.raises(ValueError):
        index_dtype_for(64, "int16")
