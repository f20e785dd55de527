"""Unit tests: PoW puzzles and identity lifecycle (repro.pow)."""

import numpy as np
import pytest

from repro.idspace.hashing import OracleSuite
from repro.pow.identity import IdentityRegistry
from repro.pow.puzzles import PuzzleScheme


@pytest.fixture
def scheme():
    return PuzzleScheme(OracleSuite(seed=1), epoch_length=200)


class TestScheme:
    def test_tau_from_epoch_length(self, scheme):
        assert scheme.tau == pytest.approx(2.0 / 200)

    def test_tau_capped_at_one(self):
        s = PuzzleScheme(OracleSuite(0), epoch_length=2, hash_rate=0.5)
        assert s.tau <= 1.0

    def test_epoch_length_validation(self):
        with pytest.raises(ValueError):
            PuzzleScheme(OracleSuite(0), epoch_length=1)


class TestOracleMode:
    def test_mint_produces_valid_solutions(self, scheme):
        rng = np.random.default_rng(0)
        sols = scheme.mint_oracle(r_string=0xBEEF, trials=2000, rng=rng)
        assert len(sols) > 0
        for s in sols[:3]:
            assert scheme.verify(s.id_value, s, 0xBEEF)

    def test_solution_count_near_expectation(self, scheme):
        rng = np.random.default_rng(1)
        trials = 5000
        sols = scheme.mint_oracle(r_string=1, trials=trials, rng=rng)
        expect = trials * scheme.tau
        assert 0.4 * expect <= len(sols) <= 2.0 * expect

    def test_verify_rejects_wrong_id(self, scheme):
        rng = np.random.default_rng(2)
        sols = scheme.mint_oracle(r_string=7, trials=2000, rng=rng, max_solutions=1)
        assert sols
        assert not scheme.verify(0.123456, sols[0], 7)

    def test_verify_rejects_stale_string(self, scheme):
        """Expiry: IDs signed under an old global string fail verification."""
        rng = np.random.default_rng(3)
        sols = scheme.mint_oracle(r_string=7, trials=2000, rng=rng, max_solutions=1)
        assert sols
        assert not scheme.verify(sols[0].id_value, sols[0], 8)

    def test_max_solutions_stops_early(self, scheme):
        rng = np.random.default_rng(4)
        sols = scheme.mint_oracle(r_string=1, trials=10_000, rng=rng, max_solutions=2)
        assert len(sols) == 2


class TestFastMode:
    def test_count_matches_binomial_mean(self, scheme):
        rng = np.random.default_rng(0)
        counts = [scheme.mint_fast(10, 200, rng).size for _ in range(50)]
        assert np.mean(counts) == pytest.approx(10 * 200 * scheme.tau, rel=0.2)

    def test_fast_matches_oracle_distribution(self, scheme):
        """The sampling shortcut and the literal loop agree on count
        statistics — the cross-check promised in the module docstring."""
        rng = np.random.default_rng(5)
        oracle_counts = [
            len(scheme.mint_oracle(9, trials=1000, rng=rng)) for _ in range(30)
        ]
        fast_counts = [scheme.mint_fast(1, 1000, rng).size for _ in range(30)]
        assert np.mean(oracle_counts) == pytest.approx(np.mean(fast_counts), rel=0.35)

    def test_ids_in_range(self, scheme):
        ids = scheme.mint_fast(50, 200, np.random.default_rng(1))
        assert (ids >= 0).all() and (ids < 1).all()

    def test_zero_compute_zero_ids(self, scheme):
        assert scheme.mint_fast(0, 200, np.random.default_rng(0)).size == 0

    def test_one_hash_confined_to_arc(self, scheme):
        ids = scheme.mint_fast_one_hash(
            50, 400, np.random.default_rng(2), arc_start=0.7, arc_width=0.1
        )
        assert ids.size > 0
        assert (np.mod(ids - 0.7, 1.0) < 0.1).all()

    def test_one_hash_same_rate(self, scheme):
        rng = np.random.default_rng(3)
        a = [scheme.mint_fast(20, 200, rng).size for _ in range(40)]
        b = [scheme.mint_fast_one_hash(20, 200, rng).size for _ in range(40)]
        assert np.mean(a) == pytest.approx(np.mean(b), rel=0.3)


class TestRegistry:
    def test_mint_epoch_counts(self):
        scheme = PuzzleScheme(OracleSuite(1), epoch_length=1000)
        reg = IdentityRegistry(scheme, n=1000, beta=0.1)
        ms = reg.mint_epoch(1, np.random.default_rng(0))
        assert ms.n_good == 900
        assert 80 <= ms.n_bad <= 230  # ~1.5 * beta * n with noise

    def test_mint_epoch_one_hash_attack(self):
        scheme = PuzzleScheme(OracleSuite(1), epoch_length=1000)
        reg = IdentityRegistry(scheme, n=1000, beta=0.1)
        ms = reg.mint_epoch(
            1, np.random.default_rng(0), one_hash_attack=True, attack_arc=(0.1, 0.02)
        )
        assert (np.mod(ms.bad_ids - 0.1, 1.0) < 0.02).all()

    def test_card_lifecycle(self):
        scheme = PuzzleScheme(OracleSuite(1), epoch_length=200)
        reg = IdentityRegistry(scheme, n=100, beta=0.1)
        reg.set_epoch_string(1, 111)
        reg.set_epoch_string(2, 222)
        card = reg.mint_card(1, np.random.default_rng(0))
        assert card is not None
        assert reg.verify_card(card, 1)
        assert not reg.verify_card(card, 2)  # expired
        assert not reg.verify_card(card, 3)  # no string adopted

    def test_string_for_missing_epoch(self):
        scheme = PuzzleScheme(OracleSuite(1), epoch_length=200)
        reg = IdentityRegistry(scheme, n=100, beta=0.1)
        with pytest.raises(KeyError):
            reg.string_for(5)


class TestBatchCountKernels:
    """E8's window kernels: batch draws == per-window reference loop."""

    def _scheme(self, T=1024):
        from repro.idspace.hashing import OracleSuite

        return PuzzleScheme(OracleSuite(), epoch_length=T)

    def test_mint_fast_count_matches_mint_fast_size(self):
        from oracles import mint_fast_count

        scheme = self._scheme()
        a = np.random.default_rng(9)
        b = np.random.default_rng(9)
        # the count draw is the same Binomial mint_fast opens with
        assert mint_fast_count(scheme, 20, 500, a) == scheme.mint_fast(20, 500, b).size

    def test_mint_count_windows_matches_serial_loop(self):
        from oracles import mint_fast_count

        scheme = self._scheme()
        a = np.random.default_rng(3)
        b = np.random.default_rng(3)
        serial = [mint_fast_count(scheme, 15, 700, a) for _ in range(25)]
        batch = scheme.mint_count_windows(15, 700, b, 25)
        assert np.array_equal(np.asarray(serial), batch)
        assert a.bit_generator.state == b.bit_generator.state

    def test_mint_count_windows_zero_cases(self):
        scheme = self._scheme()
        rng = np.random.default_rng(0)
        assert scheme.mint_count_windows(10, 100, rng, 0).size == 0
        zero_power = scheme.mint_count_windows(0, 100, rng, 5)
        assert zero_power.shape == (5,) and not zero_power.any()

    def test_uniformity_windows_matches_sequential_pair(self):
        scheme = self._scheme()
        a = np.random.default_rng(7)
        b = np.random.default_rng(7)
        two_ref = scheme.mint_fast(30, 4000, a)
        one_ref = scheme.mint_fast_one_hash(30, 4000, a, arc_start=0.1,
                                            arc_width=0.05)
        two, one = scheme.uniformity_windows(30, 4000, b, arc_start=0.1,
                                             arc_width=0.05)
        assert np.array_equal(two_ref, two)
        assert np.array_equal(one_ref, one)
