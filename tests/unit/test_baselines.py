"""Unit tests: baselines (repro.baselines)."""

import numpy as np
import pytest

from repro.adversary import UniformAdversary
from repro.baselines import (
    CuckooSimulator,
    build_logn_static,
    measure_single_id,
)
from repro.core.params import SystemParams
from repro.inputgraph import make_input_graph


@pytest.fixture
def setup():
    rng = np.random.default_rng(8)
    adv = UniformAdversary(0.05)
    ids, bad = adv.population(256, rng)
    H = make_input_graph("chord", ids)
    return H, bad, SystemParams(n=256, beta=0.05, seed=0), rng


class TestLogNBaseline:
    def test_group_size_logarithmic(self, setup):
        H, bad, params, rng = setup
        bl = build_logn_static(H, params, bad, rng)
        assert bl.group_size >= params.ln_n
        assert bl.group_size > params.group_solicit_size

    def test_all_groups_good_whp(self, setup):
        H, bad, params, rng = setup
        bl = build_logn_static(H, params, bad, rng)
        # the classic regime: eps = 1/poly(n) => essentially zero red groups
        assert bl.fraction_red <= 0.01

    def test_size_multiplier(self, setup):
        H, bad, params, rng = setup
        bl = build_logn_static(H, params, bad, rng, size_multiplier=0.5)
        assert bl.group_size == max(4, round(0.5 * params.logn_group_size))


class TestSingleId:
    def test_failure_tracks_prediction(self, setup):
        H, bad, params, rng = setup
        stats = measure_single_id(H, params, bad, 4000, rng)
        assert stats.failure_rate == pytest.approx(stats.predicted_failure, abs=0.12)

    def test_failure_grows_with_beta(self, setup):
        H, _, params, rng = setup
        lo = measure_single_id(
            H, params, np.random.default_rng(0).random(H.n) < 0.02, 3000, rng
        )
        hi = measure_single_id(
            H, params, np.random.default_rng(0).random(H.n) < 0.2, 3000, rng
        )
        assert hi.failure_rate > lo.failure_rate

    def test_cheap_messages(self, setup):
        H, bad, params, rng = setup
        stats = measure_single_id(H, params, bad, 1000, rng)
        assert stats.messages_per_search == stats.mean_hops


class TestCuckoo:
    def test_counters_consistent_after_run(self):
        sim = CuckooSimulator(n=512, beta=0.05, group_size=16, k=2, seed=0)
        sim.run(500, check_every=100)
        # recompute from scratch and compare with incremental counters
        total = np.bincount(sim.group_of, minlength=sim.n_groups)
        bad = np.bincount(
            sim.group_of, weights=sim.is_bad.astype(float), minlength=sim.n_groups
        ).astype(int)
        assert np.array_equal(total, sim.group_total)
        assert np.array_equal(bad, sim.group_bad)

    def test_population_conserved(self):
        sim = CuckooSimulator(n=512, beta=0.05, group_size=16, k=2, seed=0)
        sim.run(300, check_every=50)
        assert sim.group_total.sum() == 512
        assert sim.is_bad.sum() == round(0.05 * 512)

    def test_no_bad_ids_never_fails(self):
        sim = CuckooSimulator(n=256, beta=0.0, group_size=16, seed=0)
        out = sim.run(100)
        assert not out.failed

    def test_bigger_groups_survive_longer(self):
        survived = {}
        for gs in (8, 32):
            sim = CuckooSimulator(
                n=2048, beta=0.01, group_size=gs, k=2, threshold=1 / 3, seed=3
            )
            survived[gs] = sim.run(4000, check_every=32).events_survived
        assert survived[32] > survived[8]

    def test_commensal_mode_runs(self):
        sim = CuckooSimulator(
            n=512, beta=0.02, group_size=16, k=3, commensal=True, seed=1
        )
        out = sim.run(300, check_every=50)
        assert out.commensal
        assert out.events_survived > 0

    def test_result_fields(self):
        sim = CuckooSimulator(n=256, beta=0.02, group_size=16, seed=0)
        out = sim.run(50)
        assert out.n == 256 and out.group_size == 16
        assert 0.0 <= out.max_bad_fraction <= 1.0


class TestCuckooEntropyAndKernels:
    """The explicit-rng seam: an externally spawned stream is the single
    entropy source, and the array relocation follows the bucket-set
    reference loop's trajectory exactly."""

    def test_explicit_rng_overrides_seed(self):
        a = CuckooSimulator(n=256, beta=0.05, group_size=16,
                            rng=np.random.default_rng(123), seed=999)
        b = CuckooSimulator(n=256, beta=0.05, group_size=16,
                            rng=np.random.default_rng(123), seed=0)
        assert a.run(200) == b.run(200)

    def test_seed_fallback_without_rng(self):
        a = CuckooSimulator(n=256, beta=0.05, group_size=16, seed=7)
        b = CuckooSimulator(n=256, beta=0.05, group_size=16, seed=7)
        assert a.run(200) == b.run(200)

    def test_kernels_share_one_trajectory(self, oracle_loops):
        def run():
            sim = CuckooSimulator(
                n=512, beta=0.04, group_size=16, k=2, threshold=1 / 3,
                rng=np.random.default_rng(42),
            )
            return sim.run(500), sim.group_total.copy(), sim.group_bad.copy()

        outs = {"vectorized": run()}
        with oracle_loops():
            outs["serial"] = run()
        assert outs["serial"][0] == outs["vectorized"][0]
        assert np.array_equal(outs["serial"][1], outs["vectorized"][1])
        assert np.array_equal(outs["serial"][2], outs["vectorized"][2])

    def test_vectorized_counters_consistent_after_run(self):
        sim = CuckooSimulator(n=512, beta=0.05, group_size=16, k=2, seed=0)
        sim.run(500, check_every=100)
        total = np.bincount(sim.group_of, minlength=sim.n_groups)
        bad = np.bincount(
            sim.group_of, weights=sim.is_bad.astype(float), minlength=sim.n_groups
        ).astype(int)
        assert np.array_equal(total, sim.group_total)
        assert np.array_equal(bad, sim.group_bad)
