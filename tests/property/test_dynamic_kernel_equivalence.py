"""Differential oracles: dynamic-case kernels == reference loops.

The static-case kernels (CSR construction, batched secure search) are
pinned in ``test_kernel_equivalence.py``; this suite pins the *dynamic*
case against the loops in ``tests/oracles.py``, swapped in at the leaf
kernels by the ``oracle_loops`` fixture.  The load-bearing contract: over
any (n, beta, d2, churn_rate, topology, seed),

* the :class:`~repro.core.dynamic.EpochSimulator` — lockstep
  construction searches, bucket-LUT successor resolution, row-sorted
  group composition, batched q_f/robustness probing — must reproduce the
  reference loops' **trajectory bit-for-bit**: every field of every
  :class:`~repro.core.dynamic.EpochReport` (and the underlying
  :class:`~repro.core.membership.BuildReport` arrays), not just the final
  rendered table;
* the PoW batch kernels (``mint_count_windows``, ``uniformity_windows``)
  must equal their per-window loops draw-for-draw;
* the cuckoo array relocation must leave the bucket-set loop's positions,
  counters and :class:`~repro.baselines.cuckoo.CuckooResult` outcomes.

These are the adversarial-robustness tradition's "slow reference as
ground truth" checks (cf. exact round/bit accounting in PAPERS.md): the
fast path may only ever be *fast*, never different.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import mint_fast_count

from repro.baselines.cuckoo import CuckooSimulator
from repro.churn import UniformChurn
from repro.core.dynamic import EpochSimulator
from repro.core.params import SystemParams
from repro.idspace.hashing import OracleSuite
from repro.pow.puzzles import PuzzleScheme

EPOCH_FIELDS = (
    "epoch",
    "fraction_red_1", "fraction_red_2",
    "fraction_bad_1", "fraction_bad_2",
    "fraction_confused_1", "fraction_confused_2",
    "qf_1", "qf_2",
    "departures", "routing_messages", "mean_membership",
)
BUILD_SCALAR_FIELDS = (
    "n_new", "which", "slot_capture_rate", "bad_candidate_rate",
    "rejection_rate", "fraction_bad", "fraction_confused", "fraction_red",
    "mean_group_size", "searches_routed", "routing_messages",
)


def _run_trajectory(*, n, beta, d2, churn_rate, topology, seed,
                    epochs=2, probes=150):
    params = SystemParams(n=n, beta=beta, d1=d2 / 4.0, d2=d2, seed=seed)
    sim = EpochSimulator(
        params,
        topology=topology,
        churn=UniformChurn(rate=churn_rate) if churn_rate > 0 else None,
        probes=probes,
        rng=np.random.default_rng(seed),
    )
    return sim.run(epochs), sim


def _assert_build_equal(a, b):
    for f in BUILD_SCALAR_FIELDS:
        assert getattr(a, f) == getattr(b, f), f
    assert np.array_equal(a.red, b.red)
    assert np.array_equal(a.sizes, b.sizes)
    assert np.array_equal(a.membership_counts, b.membership_counts)
    assert np.array_equal(a.side.good_indptr, b.side.good_indptr)
    assert np.array_equal(a.side.good_members, b.side.good_members)
    assert np.array_equal(a.side.n_bad, b.side.n_bad)
    assert np.array_equal(a.side.confused, b.side.confused)


@given(
    n=st.integers(min_value=24, max_value=96),
    beta=st.floats(min_value=0.01, max_value=0.15),
    d2=st.floats(min_value=6.0, max_value=12.0),
    churn_rate=st.floats(min_value=0.0, max_value=0.2),
    topology=st.sampled_from(["chord", "debruijn"]),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=6, deadline=None)
@pytest.mark.slow
def test_epoch_trajectories_bit_identical(
    n, beta, d2, churn_rate, topology, seed, oracle_loops
):
    """The whole epoch trajectory — every EpochReport field per epoch —
    must agree between the reference loops and the array kernels."""
    kw = dict(n=n, beta=beta, d2=d2, churn_rate=churn_rate,
              topology=topology, seed=seed)
    with oracle_loops():
        serial, sim_s = _run_trajectory(**kw)
    vec, sim_v = _run_trajectory(**kw)
    assert len(serial) == len(vec)
    for ra, rb in zip(serial, vec):
        for f in EPOCH_FIELDS:
            assert getattr(ra, f) == getattr(rb, f), (ra.epoch, f)
        assert ra.robustness == rb.robustness
        _assert_build_equal(ra.build_1, rb.build_1)
        assert (ra.build_2 is None) == (rb.build_2 is None)
        if ra.build_2 is not None:
            _assert_build_equal(ra.build_2, rb.build_2)
    # final pair state (what the next epoch would consume) must match too
    assert np.array_equal(sim_s.pair.red1, sim_v.pair.red1)
    assert np.array_equal(sim_s.pair.red2, sim_v.pair.red2)
    assert np.array_equal(sim_s.pair.bad_mask, sim_v.pair.bad_mask)
    assert np.array_equal(sim_s.pair.ring.ids, sim_v.pair.ring.ids)


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=5, deadline=None)
@pytest.mark.slow
def test_single_graph_ablation_trajectories_bit_identical(seed, oracle_loops):
    """two_graphs=False (the E5 ablation) runs the same kernels."""
    params = SystemParams(n=48, beta=0.08, seed=seed)

    def run():
        sim = EpochSimulator(
            params, two_graphs=False, probes=120,
            rng=np.random.default_rng(seed),
        )
        return sim.run(2)

    out = {"vectorized": run()}
    with oracle_loops():
        out["serial"] = run()
    for ra, rb in zip(out["serial"], out["vectorized"]):
        for f in EPOCH_FIELDS:
            assert getattr(ra, f) == getattr(rb, f), (ra.epoch, f)


@given(
    power=st.floats(min_value=0.0, max_value=600.0),
    epoch_length=st.integers(min_value=64, max_value=8192),
    windows=st.integers(min_value=0, max_value=60),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=30, deadline=None)
def test_mint_count_windows_matches_serial_loop(power, epoch_length, windows, seed):
    """The batched window-count kernel must equal per-window count draws
    draw-for-draw on identically seeded generators."""
    scheme = PuzzleScheme(OracleSuite(), epoch_length=epoch_length)
    steps = 1.5 * epoch_length / 2.0
    a = np.random.default_rng(seed)
    b = np.random.default_rng(seed)
    serial = np.asarray(
        [mint_fast_count(scheme, power, steps, a) for _ in range(windows)],
        dtype=np.int64,
    )
    batch = scheme.mint_count_windows(power, steps, b, windows)
    assert np.array_equal(serial, batch)
    # generators must also end in the same state: later draws stay aligned
    assert a.bit_generator.state == b.bit_generator.state


@given(
    power=st.floats(min_value=0.0, max_value=400.0),
    epoch_length=st.integers(min_value=64, max_value=4096),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=20, deadline=None)
def test_uniformity_windows_matches_sequential_oracle_pair(power, epoch_length, seed):
    """The batched KS-input generator == mint_fast then mint_fast_one_hash."""
    scheme = PuzzleScheme(OracleSuite(), epoch_length=epoch_length)
    steps = 40 * 1.5 * epoch_length / 2.0
    a = np.random.default_rng(seed)
    b = np.random.default_rng(seed)
    two_ref = scheme.mint_fast(power, steps, a)
    one_ref = scheme.mint_fast_one_hash(power, steps, a, arc_start=0.2, arc_width=0.05)
    two, one = scheme.uniformity_windows(power, steps, b, arc_start=0.2, arc_width=0.05)
    assert np.array_equal(two_ref, two)
    assert np.array_equal(one_ref, one)
    assert a.bit_generator.state == b.bit_generator.state


@given(
    n=st.integers(min_value=64, max_value=512),
    beta=st.floats(min_value=0.0, max_value=0.2),
    group_size=st.sampled_from([8, 16, 32]),
    k=st.integers(min_value=1, max_value=6),
    commensal=st.booleans(),
    threshold=st.sampled_from([1.0 / 3.0, 0.5]),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=20, deadline=None)
def test_cuckoo_relocation_kernels_bit_identical(
    n, beta, group_size, k, commensal, threshold, seed, oracle_loops
):
    """Bucket-set loop vs array relocation churn runs: same CuckooResult
    and same final simulator state."""
    sims = {}
    outs = {}

    def run(label):
        sim = CuckooSimulator(
            n=n, beta=beta, group_size=group_size, k=k, commensal=commensal,
            threshold=threshold, rng=np.random.default_rng(seed),
        )
        outs[label] = sim.run(400, check_every=16)
        sims[label] = sim

    run("vectorized")
    with oracle_loops():
        run("serial")
    assert outs["serial"] == outs["vectorized"]
    a, b = sims["serial"], sims["vectorized"]
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.group_of, b.group_of)
    assert np.array_equal(a.kregion_of, b.kregion_of)
    assert np.array_equal(a.group_total, b.group_total)
    assert np.array_equal(a.group_bad, b.group_bad)
    # and the generators stayed draw-aligned (pre-drawn event arrays +
    # identical per-event victim draws)
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


@pytest.mark.slow
def test_e4_paper_scale_epoch_matches_oracle(oracle_loops):
    """One E4 epoch at paper scale (n = 2048, 4000 probes): the table the
    reference loops render (~40 s on one core) equals the kernels'."""
    from repro.experiments import run_experiment

    kwargs = dict(seed=0, fast=False, epochs=1, probes=4000)
    kernels = run_experiment("E4", **kwargs)
    assert "n=2048" in kernels.title
    with oracle_loops():
        loops = run_experiment("E4", **kwargs)
    assert loops.render() == kernels.render()
