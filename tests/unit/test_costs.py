"""Unit tests: cost accounting (repro.core.costs)."""

import pytest

from repro.core.costs import CostLedger, corollary1_predictions


class TestCostLedger:
    def test_add_messages(self):
        led = CostLedger()
        led.add_messages("routing", 10)
        led.add_messages("routing", 5)
        assert led.messages["routing"] == 15

    def test_group_comm(self):
        led = CostLedger()
        led.group_comm(group_size=5)
        assert led.messages["group_comm"] == 20  # 5*4

    def test_group_comm_rounds(self):
        led = CostLedger()
        led.group_comm(group_size=4, rounds=3)
        assert led.messages["group_comm"] == 36

    def test_inter_group_hop(self):
        led = CostLedger()
        led.inter_group_hop(3, 7)
        assert led.messages["routing"] == 21

    def test_total_messages(self):
        led = CostLedger()
        led.add_messages("a", 1)
        led.add_messages("b", 2)
        assert led.total_messages() == 3

    def test_count_op(self):
        led = CostLedger()
        led.count_op("searches", 5)
        led.count_op("searches")
        assert led.operations["searches"] == 6

    def test_merge(self):
        a, b = CostLedger(), CostLedger()
        a.add_messages("x", 1)
        b.add_messages("x", 2)
        b.count_op("o", 4)
        a.merge(b)
        assert a.messages["x"] == 3
        assert a.operations["o"] == 4

    def test_snapshot(self):
        led = CostLedger()
        led.add_messages("x", 1)
        snap = led.snapshot()
        assert snap == {"messages": {"x": 1}, "operations": {}}

    def test_merge_returns_self_and_leaves_other_as_it_was(self):
        a, b = CostLedger(), CostLedger()
        b.add_messages("x", 2)
        b.count_op("o", 1)
        assert a.merge(b) is a
        a.add_messages("x", 5)
        a.count_op("o")
        assert b.snapshot() == {"messages": {"x": 2}, "operations": {"o": 1}}

    def test_snapshot_is_a_copy(self):
        led = CostLedger()
        led.add_messages("x", 1)
        led.count_op("o")
        snap = led.snapshot()
        snap["messages"]["x"] = 99
        snap["operations"].clear()
        assert led.snapshot() == {"messages": {"x": 1}, "operations": {"o": 1}}


class TestCorollary1:
    def test_group_comm_quadratic(self):
        p = corollary1_predictions(n=1024, group_size=6, route_length=10)
        assert p.group_comm_messages == 30

    def test_routing_cost(self):
        p = corollary1_predictions(n=1024, group_size=6, route_length=10)
        assert p.routing_messages_per_search == pytest.approx(360)

    def test_tiny_beats_classic(self):
        tiny = corollary1_predictions(n=2**16, group_size=3, route_length=16)
        classic = corollary1_predictions(n=2**16, group_size=11, route_length=16)
        assert tiny.routing_messages_per_search < classic.routing_messages_per_search
        assert tiny.state_per_id < classic.state_per_id

    def test_rows_render(self):
        p = corollary1_predictions(n=1024, group_size=6, route_length=10)
        rows = p.rows()
        assert len(rows) == 4
        assert all(len(r) == 2 for r in rows)
