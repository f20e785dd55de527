"""Unit tests: secure routing (repro.core.secure_routing)."""

from dataclasses import fields

import numpy as np
import pytest

from repro.core.costs import CostLedger
from repro.core.group_graph import GroupGraph
from repro.core.params import SystemParams
from repro.core.secure_routing import SecureRouter
from repro.inputgraph import make_input_graph


@pytest.fixture
def H():
    return make_input_graph("chord", np.random.default_rng(11).random(128))


@pytest.fixture
def params():
    return SystemParams(n=128, seed=0)


class TestSecureRouter:
    def test_all_blue_delivers(self, H, params):
        gg = GroupGraph(H, params, red=np.zeros(H.n, dtype=bool))
        router = SecureRouter(gg)
        out = router.search(3, 0.7)
        assert out.delivered and not out.corrupted
        assert out.hops >= 0
        assert out.messages > 0

    def test_red_on_path_corrupts(self, H, params):
        path, _ = H.route(3, 0.7)
        if len(path) >= 2:
            red = np.zeros(H.n, dtype=bool)
            red[path[1]] = True
            gg = GroupGraph(H, params, red=red)
            router = SecureRouter(gg)
            out = router.search(3, 0.7)
            assert out.corrupted and not out.delivered

    def test_red_source_corrupts(self, H, params):
        red = np.zeros(H.n, dtype=bool)
        red[3] = True
        gg = GroupGraph(H, params, red=red)
        out = SecureRouter(gg).search(3, 0.7)
        assert out.corrupted

    def test_minority_bad_members_filtered(self, H, params):
        """Groups with a bad minority still deliver (the whole point)."""
        from repro.core.groups import build_groups_fast, classify_groups

        rng = np.random.default_rng(0)
        bad = rng.random(H.n) < 0.05
        gs = build_groups_fast(H.ring, params, rng)
        q = classify_groups(gs, bad, params)
        gg = GroupGraph(H, params, red=q.is_bad.copy(), groups=gs)
        router = SecureRouter(gg)
        delivered = sum(
            router.search(int(rng.integers(H.n)), float(rng.random())).delivered
            for _ in range(30)
        )
        assert delivered >= 25

    def test_messages_charged_to_ledger(self, H, params):
        # each outcome reports its own cost; a shared ledger keeps the total
        gg = GroupGraph(H, params, red=np.zeros(H.n, dtype=bool))
        led = CostLedger()
        router = SecureRouter(gg)
        first = router.search(3, 0.7, ledger=led)
        second = router.search(3, 0.7, ledger=led)
        assert first.messages > 0
        assert second.messages == first.messages
        assert led.messages["routing"] == 2 * first.messages

    def test_red_last_group_blocks_at_the_last_position(self, H, params):
        path, _ = H.route(3, 0.7)
        assert len(path) >= 2
        red = np.zeros(H.n, dtype=bool)
        red[path[-1]] = True
        gg = GroupGraph(H, params, red=red)
        led = CostLedger()
        out = SecureRouter(gg).search(3, 0.7, ledger=led)
        assert out.corrupted and not out.delivered
        assert out.first_blocked == len(path) - 1
        assert np.array_equal(out.path, path)
        # every hop is still charged, the blocked one included
        s = params.group_solicit_size
        assert out.messages == led.messages["routing"] == (len(path) - 1) * s * s

    def test_message_count_is_size_product_sum(self, H, params):
        sizes = np.full(H.n, 4, dtype=np.int64)
        gg = GroupGraph(H, params, red=np.zeros(H.n, dtype=bool), group_sizes=sizes)
        out = SecureRouter(gg).search(3, 0.7)
        assert out.messages == out.hops * 16

    def test_batch_cost_is_size_product_sum(self, H, params):
        gg = GroupGraph(H, params, red=np.zeros(H.n, dtype=bool))
        led = CostLedger()
        out = SecureRouter(gg).route_outcomes(
            H.random_route_batch(200, np.random.default_rng(1)), ledger=led
        )
        s = params.group_solicit_size
        # per-search cost = hops * |G|^2 with every group at the solicit size
        assert np.array_equal(out.messages, out.hops * s * s)
        assert out.messages.mean() > s * s  # at least one hop
        assert led.messages["routing"] == int(out.messages.sum())


class TestSearchBatch:
    """The lockstep kernel must agree with the scalar search probe-for-probe."""

    def _routers(self, H, params, seed=0, pf=0.08, member_level=False):
        rng = np.random.default_rng(seed)
        if member_level:
            from repro.core.groups import build_groups_fast, classify_groups

            bad = rng.random(H.n) < 0.10
            gs = build_groups_fast(H.ring, params, rng)
            q = classify_groups(gs, bad, params)
            gg = GroupGraph(H, params, red=q.is_bad.copy(), groups=gs)
            return SecureRouter(gg)
        red = rng.random(H.n) < pf
        return SecureRouter(GroupGraph(H, params, red=red))

    @pytest.mark.parametrize("member_level", [False, True])
    def test_parity_with_scalar(self, H, params, member_level):
        router = self._routers(H, params, member_level=member_level)
        rng = np.random.default_rng(1)
        src = rng.integers(0, H.n, size=200)
        tgt = rng.random(200)
        out = router.search_batch(src, tgt)
        for i in range(200):
            scalar = router.search(int(src[i]), float(tgt[i]))
            assert bool(out.delivered[i]) == scalar.delivered, i
            assert bool(out.corrupted[i]) == scalar.corrupted, i
            assert int(out.hops[i]) == scalar.hops, i
            assert int(out.messages[i]) == scalar.messages, i
            assert int(out.first_blocked[i]) == scalar.first_blocked, i

    def test_all_blue_batch_delivers(self, H, params):
        gg = GroupGraph(H, params, red=np.zeros(H.n, dtype=bool))
        out = SecureRouter(gg).search_batch(
            np.arange(50) % H.n, np.linspace(0.0, 0.99, 50)
        )
        assert out.delivered.all() and not out.corrupted.any()
        assert (out.first_blocked == (out.paths != -1).sum(axis=1)).all()

    def test_ledger_charged_total(self, H, params):
        from repro.core.costs import CostLedger

        gg = GroupGraph(H, params, red=np.zeros(H.n, dtype=bool))
        led = CostLedger()
        out = SecureRouter(gg).search_batch(
            np.arange(20), np.linspace(0.0, 0.95, 20), ledger=led
        )
        assert led.messages["routing"] == int(out.messages.sum())

    def test_messages_read_twice_are_equal(self, H, params):
        gg = GroupGraph(H, params, red=np.zeros(H.n, dtype=bool))
        out = SecureRouter(gg).search_batch(
            np.arange(20), np.linspace(0.0, 0.95, 20)
        )
        first = out.messages
        assert np.array_equal(out.messages, first)
        assert out.messages is first  # computed once, on the first read

    @pytest.mark.parametrize("pf", [0.0, 0.3, 1.0])
    def test_route_outcomes_is_evaluate(self, H, params, pf):
        rng = np.random.default_rng(5)
        gg = GroupGraph(H, params, red=rng.random(H.n) < pf)
        batch = H.random_route_batch(300, rng)
        led = CostLedger()
        out = SecureRouter(gg).route_outcomes(batch, ledger=led)
        ev = gg.evaluate(batch)
        for f in fields(ev):
            assert np.array_equal(getattr(out, f.name), getattr(ev, f.name)), f
        assert np.array_equal(out.messages, ev.messages)
        assert led.messages["routing"] == int(ev.messages.sum())

    def test_search_path_mask_prefix(self, H, params):
        """The mask covers exactly the prefix through the first red group."""
        path, _ = H.route(3, 0.7)
        assert len(path) >= 2
        red = np.zeros(H.n, dtype=bool)
        red[path[1]] = True
        gg = GroupGraph(H, params, red=red)
        out = SecureRouter(gg).search_batch(np.array([3]), np.array([0.7]))
        mask = out.search_path_mask()
        assert int(out.first_blocked[0]) == 1
        assert mask[0, :2].all() and not mask[0, 2:].any()

    def test_failure_rate_property(self, H, params):
        gg = GroupGraph(H, params, red=np.ones(H.n, dtype=bool))
        out = SecureRouter(gg).search_batch(np.array([0, 1]), np.array([0.2, 0.9]))
        assert out.failure_rate == 1.0
