"""Unit tests: App.-X heavyweight initialization (repro.core.initialization)."""

import numpy as np
import pytest

from repro.adversary import UniformAdversary
from repro.core.initialization import elect_representative_cluster, heavyweight_init
from repro.core.membership import measure_qf
from repro.core.params import SystemParams


@pytest.fixture
def population():
    rng = np.random.default_rng(41)
    params = SystemParams(n=256, beta=0.05, seed=0)
    ids, bad = UniformAdversary(params.beta).population(params.n, rng)
    return params, ids, bad, rng


class TestElection:
    def test_cluster_size_logarithmic(self, population):
        params, ids, bad, rng = population
        cluster, agreed, msgs = elect_representative_cluster(
            ids.size, bad, params, rng
        )
        assert cluster.size == max(4, round(2.0 * params.ln_n))
        assert agreed

    def test_cluster_good_majority_whp(self, population):
        params, ids, bad, rng = population
        majorities = 0
        for _ in range(30):
            cluster, _, _ = elect_representative_cluster(ids.size, bad, params, rng)
            if (~bad[cluster]).sum() * 2 > cluster.size:
                majorities += 1
        assert majorities >= 28

    def test_election_cost_superlinear(self, population):
        params, ids, bad, rng = population
        _, _, msgs = elect_representative_cluster(ids.size, bad, params, rng)
        assert msgs >= ids.size ** 1.5  # [21]'s soft-O(n^{3/2}) bill


class TestHeavyweightInit:
    def test_produces_valid_pair(self, population):
        params, ids, bad, rng = population
        report = heavyweight_init(params, ids, bad, rng)
        pair = report.pair
        assert pair.n == ids.size
        assert pair.side1 is not None and pair.side2 is not None
        assert not pair.side1.confused.any()

    def test_pair_has_low_qf(self, population):
        """The initialized pair matches the EpochSimulator's assumed epoch-0
        distribution: searches almost always succeed."""
        params, ids, bad, rng = population
        report = heavyweight_init(params, ids, bad, rng)
        q1, q2 = measure_qf(report.pair, params, 1000, rng)
        assert q1 < 0.05 and q2 < 0.05

    def test_costs_reported(self, population):
        params, ids, bad, rng = population
        report = heavyweight_init(params, ids, bad, rng)
        assert report.discovery_messages > 0
        assert report.election_messages >= ids.size ** 1.5
        assert report.assignment_messages > 0

    def test_pair_matches_reference_loops(self, population, oracle_loops):
        """The epoch-0 pair (good-member CSR, bad counts, red masks) equals
        the per-group loop's, dtypes included."""
        params, ids, bad, _ = population

        def arrays():
            pair = heavyweight_init(params, ids, bad,
                                    np.random.default_rng(7)).pair
            return [pair.red1, pair.red2] + [
                a for side in (pair.side1, pair.side2)
                for a in (side.good_indptr, side.good_members, side.n_bad)]

        kernels = arrays()
        with oracle_loops():
            loops = arrays()
        for got, want in zip(kernels, loops):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_cluster_flagged(self, population):
        params, ids, bad, rng = population
        report = heavyweight_init(params, ids, bad, rng)
        assert report.cluster_good_majority
        assert report.election_agreed
