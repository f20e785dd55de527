"""Unit tests: epoch simulator (repro.core.dynamic)."""

import numpy as np
import pytest

from repro.churn import UniformChurn
from repro.core.dynamic import EpochSimulator
from repro.core.params import SystemParams


@pytest.fixture
def params():
    return SystemParams(n=128, beta=0.05, seed=1)


class TestInit:
    def test_initial_pair_populated(self, params):
        sim = EpochSimulator(params, probes=500)
        assert sim.pair.n >= 120
        assert sim.pair.side1 is not None
        assert sim.pair.side2 is not None
        assert sim.epoch == 0

    def test_initial_no_confusion(self, params):
        sim = EpochSimulator(params, probes=500)
        assert not sim.pair.side1.confused.any()

    def test_reproducible(self, params):
        a = EpochSimulator(params, probes=500)
        b = EpochSimulator(params, probes=500)
        assert np.array_equal(a.pair.ring.ids, b.pair.ring.ids)
        assert np.array_equal(a.pair.red1, b.pair.red1)


class TestStep:
    def test_step_advances_epoch(self, params):
        sim = EpochSimulator(params, probes=500)
        rep = sim.step()
        assert rep.epoch == 1 and sim.epoch == 1
        assert len(sim.history) == 1

    def test_population_replaced(self, params):
        sim = EpochSimulator(params, probes=500)
        old_ids = sim.pair.ring.ids.copy()
        sim.step()
        assert not np.array_equal(old_ids, sim.pair.ring.ids)

    def test_two_graphs_builds_both(self, params):
        sim = EpochSimulator(params, probes=500)
        rep = sim.step()
        assert rep.build_2 is not None
        assert rep.build_1.which == 1 and rep.build_2.which == 2

    def test_step_leaves_pair_red_writeable(self):
        # building the step's group graphs must not freeze the pair's masks
        sim = EpochSimulator(SystemParams(n=256, beta=0.05, seed=1), probes=200)
        sim.step()
        assert sim.pair.red1.flags.writeable
        assert sim.pair.red2.flags.writeable

    def test_single_graph_mode(self, params):
        sim = EpochSimulator(params, two_graphs=False, probes=500)
        rep = sim.step()
        assert rep.build_2 is None
        assert np.array_equal(sim.pair.red1, sim.pair.red2)

    def test_run_collects_history(self, params):
        sim = EpochSimulator(params, probes=500)
        reports = sim.run(3)
        assert [r.epoch for r in reports] == [1, 2, 3]
        # the simulator itself keeps only the latest report
        assert list(sim.history) == [reports[-1]]

    def test_churn_applied(self, params):
        sim = EpochSimulator(params, churn=UniformChurn(rate=0.1), probes=500)
        rep = sim.step()
        assert rep.departures > 0

    def test_ledger_accumulates(self, params):
        sim = EpochSimulator(params, probes=500)
        sim.step()
        m1 = sim.ledger.total_messages()
        sim.step()
        assert sim.ledger.total_messages() > m1

    def test_per_epoch_messages_not_cumulative(self, params):
        sim = EpochSimulator(params, probes=500)
        r1 = sim.step()
        r2 = sim.step()
        # each report carries only its own epoch's build messages
        assert abs(r2.routing_messages - r1.routing_messages) < r1.routing_messages

    def test_stable_at_low_beta(self, params):
        sim = EpochSimulator(params, probes=500)
        reports = sim.run(3)
        assert all(r.fraction_red < 0.2 for r in reports)

    def test_report_aggregates(self, params):
        sim = EpochSimulator(params, probes=500)
        rep = sim.step()
        assert rep.fraction_red == pytest.approx(
            0.5 * (rep.fraction_red_1 + rep.fraction_red_2)
        )
        assert rep.qf == pytest.approx(0.5 * (rep.qf_1 + rep.qf_2))

    def test_zero_probes_measures_empty_batch(self):
        # an empty probe batch has failure rate 0.0 (SearchEvaluation's
        # value for no searches), not an error from the router
        rep = EpochSimulator(SystemParams(n=64, seed=1), probes=0).step()
        assert rep.qf_1 == rep.qf_2 == 0.0


class TestKernelSelection:
    def test_unknown_kernel_rejected(self, params):
        import pytest as _pytest

        with _pytest.raises(ValueError, match="kernel"):
            EpochSimulator(params, kernel="bogus")

    def test_default_kernel_is_vectorized(self, params):
        assert EpochSimulator(params, probes=100).kernel == "vectorized"

    def test_serial_kernel_step_matches_vectorized(self, params):
        import numpy as np

        reports = {}
        for kernel in ("serial", "vectorized"):
            sim = EpochSimulator(
                params, probes=200, rng=np.random.default_rng(2), kernel=kernel
            )
            reports[kernel] = sim.step()
        a, b = reports["serial"], reports["vectorized"]
        assert a.fraction_red == b.fraction_red
        assert a.qf == b.qf
        assert a.routing_messages == b.routing_messages
        assert a.mean_membership == b.mean_membership
