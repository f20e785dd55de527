"""Unit tests: strings, bins, propagation, precompute (repro.pow)."""

import numpy as np
import pytest

from repro.idspace.hashing import OracleSuite
from repro.inputgraph import make_input_graph
from repro.pow.precompute import simulate_precompute_attack
from repro.pow.propagation import StringPropagation
from repro.pow.puzzles import PuzzleScheme
from repro.pow.strings import (
    BinTable,
    StringCandidate,
    sample_adversary_outputs,
    sample_honest_minimum,
    solution_set,
)


class TestBinTable:
    def test_bin_of_boundaries(self):
        bt = BinTable(n=256, epoch_length=1000)
        assert bt.bin_of(0.6) == 0       # [1/2, 1)
        assert bt.bin_of(0.3) == 1       # [1/4, 1/2)
        assert bt.bin_of(0.2) == 2       # [1/8, 1/4)

    def test_bin_of_tiny_clamped(self):
        bt = BinTable(n=256, epoch_length=1000)
        assert bt.bin_of(1e-300) == bt.n_bins - 1
        assert bt.bin_of(0.0) == bt.n_bins - 1

    def test_forward_requires_record(self):
        bt = BinTable(n=256, epoch_length=1000)
        assert bt.should_forward(0.3)
        assert not bt.should_forward(0.35)  # not a record in its bin
        assert bt.should_forward(0.26)      # new record

    def test_counter_saturates(self):
        bt = BinTable(n=256, epoch_length=1000)
        v = 0.49
        accepted = 0
        while bt.should_forward(v):
            accepted += 1
            v *= 0.999  # strictly decreasing records in bin 1
            if v < 0.25:
                break
        assert accepted <= bt.c0_ln_n


class TestSolutionSet:
    def test_size_capped(self):
        cands = [StringCandidate(i / 100.0, i, i) for i in range(1, 80)]
        rs = solution_set(cands, n=256, d0=2.0)
        assert len(rs) <= int(np.ceil(2 * np.log(256)))

    def test_keeps_smallest(self):
        cands = [StringCandidate(o, 0, int(o * 1e6)) for o in (0.5, 0.01, 0.3)]
        rs = solution_set(cands, n=256)
        assert rs[0].output == 0.01

    def test_dedupes(self):
        c = StringCandidate(0.5, 1, 42)
        assert len(solution_set([c, c, c], n=256)) == 1


class TestSampling:
    def test_honest_minimum_distribution(self):
        rng = np.random.default_rng(0)
        m = 1000
        mins = sample_honest_minimum(m, rng, size=4000)
        # E[min of m uniforms] = 1/(m+1)
        assert mins.mean() == pytest.approx(1.0 / (m + 1), rel=0.15)

    def test_adversary_outputs_sorted_small(self):
        rng = np.random.default_rng(1)
        outs = sample_adversary_outputs(1e6, 5, rng)
        assert (np.diff(outs) > 0).all()
        assert outs[0] < 1e-4  # smallest of a million trials is tiny

    def test_adversary_first_output_scale(self):
        rng = np.random.default_rng(2)
        firsts = [sample_adversary_outputs(1e5, 1, rng)[0] for _ in range(300)]
        assert np.mean(firsts) == pytest.approx(1e-5, rel=0.3)


@pytest.fixture(scope="module")
def propagation():
    rng = np.random.default_rng(5)
    H = make_input_graph("chord", rng.random(256))
    indptr, indices = H.neighbor_lists()
    good = rng.random(256) > 0.08
    return StringPropagation(
        indptr, indices, good, group_size=8, epoch_length=512
    )


class TestPropagation:
    def test_clean_run_agreement(self, propagation):
        res = propagation.run(np.random.default_rng(0))
        assert res.agreement
        assert res.global_min_agreed
        assert res.max_solution_set <= int(np.ceil(2 * np.log(256))) + 1

    def test_giant_component_large(self, propagation):
        res = propagation.run(np.random.default_rng(0))
        assert res.giant_component_size > 0.9 * res.n_good

    def test_delayed_release_keeps_agreement(self, propagation):
        res = propagation.run(
            np.random.default_rng(1), adversary_beta=0.1, delayed_release=True
        )
        assert res.agreement

    def test_forced_min_breaks_unanimity_not_agreement(self, propagation):
        """Footnote-16 attack: s* differs across IDs, yet every chosen s*
        is in every solution set (the property verification needs)."""
        res = propagation.run(
            np.random.default_rng(2),
            delayed_release=True,
            forced_injection_output=1e-12,
        )
        assert not res.global_min_agreed
        assert res.agreement

    def test_messages_weighted_by_group_size(self, propagation):
        res = propagation.run(np.random.default_rng(3))
        assert res.messages == res.forward_events * 64


class TestPrecompute:
    @pytest.fixture
    def scheme(self):
        return PuzzleScheme(OracleSuite(2), epoch_length=1000)

    def test_no_strings_unbounded(self, scheme):
        rng = np.random.default_rng(0)
        small = simulate_precompute_attack(scheme, 1000, 0.1, 1, False, rng)
        big = simulate_precompute_attack(scheme, 1000, 0.1, 30, False, rng)
        assert big.bad_fraction_at_attack > small.bad_fraction_at_attack
        assert big.majority_lost

    def test_with_strings_capped(self, scheme):
        rng = np.random.default_rng(1)
        outs = [
            simulate_precompute_attack(scheme, 1000, 0.1, h, True, rng)
            for h in (2, 10, 50)
        ]
        fracs = [o.bad_fraction_at_attack for o in outs]
        assert max(fracs) - min(fracs) < 0.1  # flat in hoarding horizon
        assert not any(o.majority_lost for o in outs)

    def test_window_respected(self, scheme):
        rng = np.random.default_rng(2)
        out = simulate_precompute_attack(
            scheme, 1000, 0.1, 50, True, rng, window_epochs=1.5
        )
        # usable compute = 1.5 epochs * beta*n units * T steps * tau
        expect = 1.5 * 0.1 * 1000 * 1000 * scheme.tau
        assert out.usable_bad_ids == pytest.approx(expect, rel=0.3)
