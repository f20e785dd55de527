"""Unit tests: bootstrap groups (App. IX) and ε-robustness evaluation."""

import numpy as np
import pytest

from repro.core.bootstrap import (
    bootstrap_failure_probability,
    bootstrap_group_count,
    form_bootstrap_group,
)
from repro.core.dynamic import EpochSimulator
from repro.core.group_graph import GroupGraph
from repro.core.params import SystemParams
from repro.core.robustness import evaluate_robustness
from repro.inputgraph import make_input_graph


@pytest.fixture
def sim():
    return EpochSimulator(SystemParams(n=256, beta=0.05, seed=3), probes=300)


class TestBootstrap:
    def test_count_scales(self):
        small = bootstrap_group_count(SystemParams(n=64))
        large = bootstrap_group_count(SystemParams(n=2**20))
        assert large >= small >= 2

    def test_committee_pools_members(self, sim):
        bg = form_bootstrap_group(sim.pair, sim.params, np.random.default_rng(0))
        assert bg.size > 0
        assert bg.groups_contacted == bootstrap_group_count(sim.params)

    def test_good_majority_whp(self, sim):
        fail = bootstrap_failure_probability(
            sim.pair, sim.params, trials=100, rng=np.random.default_rng(1)
        )
        assert fail < 0.05

    def test_fails_when_system_overrun(self):
        """Failure injection: at beta near 1/2 bootstrap majorities die."""
        sim = EpochSimulator(
            SystemParams(n=256, beta=0.45, delta=0.05, seed=3), probes=300
        )
        fail = bootstrap_failure_probability(
            sim.pair, sim.params, trials=60, rng=np.random.default_rng(1)
        )
        assert fail > 0.2


class TestRobustness:
    @pytest.fixture
    def H(self):
        return make_input_graph("chord", np.random.default_rng(5).random(256))

    def test_all_blue_perfect(self, H):
        params = SystemParams(n=256, seed=0)
        gg = GroupGraph(H, params, red=np.zeros(256, dtype=bool))
        rep = evaluate_robustness(gg, np.random.default_rng(0))
        assert rep.epsilon_achieved == 0.0

    def test_all_red_hopeless(self, H):
        params = SystemParams(n=256, seed=0)
        gg = GroupGraph(H, params, red=np.ones(256, dtype=bool))
        rep = evaluate_robustness(gg, np.random.default_rng(0))
        assert rep.fraction_blocked_ids == 1.0

    def test_eps_monotone_in_red(self, H):
        params = SystemParams(n=256, seed=0)
        rng = np.random.default_rng(1)
        lo = evaluate_robustness(
            GroupGraph.with_synthetic_red(H, params, 0.01, rng),
            np.random.default_rng(2),
        )
        hi = evaluate_robustness(
            GroupGraph.with_synthetic_red(H, params, 0.2, rng),
            np.random.default_rng(2),
        )
        assert hi.epsilon_achieved >= lo.epsilon_achieved

    def test_rows_render(self, H):
        params = SystemParams(n=256, seed=0)
        gg = GroupGraph(H, params, red=np.zeros(256, dtype=bool))
        rep = evaluate_robustness(gg, np.random.default_rng(0))
        assert len(rep.rows()) == 5
