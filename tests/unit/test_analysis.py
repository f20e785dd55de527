"""Unit tests: theory predictions, stats, tables (repro.analysis)."""

import math

import numpy as np
import pytest

from repro.analysis import (
    TableResult,
    bad_group_probability,
    bootstrap_ci,
    chernoff_upper,
    corollary1_cost_rows,
    group_size_for_target,
    ks_uniform,
    lemma7_red_bound,
    lemma8_confusion_bound,
    proportion_ci,
    render_table,
    union_bound_failure,
)
from repro.core.params import SystemParams


class TestBadGroupProbability:
    def test_monotone_decreasing_in_size(self):
        probs = [bad_group_probability(s, 0.1, 1 / 3) for s in (4, 8, 16, 32)]
        assert probs == sorted(probs, reverse=True)

    def test_monotone_increasing_in_beta(self):
        assert bad_group_probability(16, 0.2, 1 / 3) > bad_group_probability(
            16, 0.05, 1 / 3
        )

    def test_zero_size_certain(self):
        assert bad_group_probability(0, 0.1, 1 / 3) == 1.0

    def test_matches_hand_computation(self):
        # size 2, threshold 1/3 => bad iff >= 1 bad member: 1 - (1-b)^2
        b = 0.1
        assert bad_group_probability(2, b, 1 / 3) == pytest.approx(1 - (1 - b) ** 2)

    def test_chernoff_upper_bounds_exact_at_scale(self):
        for s in (30, 60, 120):
            exact = bad_group_probability(s, 0.05, 1 / 3)
            cher = chernoff_upper(s, 0.05, 1 / 3)
            assert cher >= exact

    def test_chernoff_trivial_when_threshold_below_beta(self):
        assert chernoff_upper(16, 0.3, 0.2) == 1.0


class TestBounds:
    def test_lemma7_increases_with_qf(self):
        p = SystemParams(n=1024)
        assert lemma7_red_bound(0.1, p) > lemma7_red_bound(0.01, p)

    def test_lemma7_floor_is_composition(self):
        p = SystemParams(n=1024)
        comp = bad_group_probability(
            p.group_solicit_size, p.beta, p.bad_member_threshold
        )
        assert lemma7_red_bound(0.0, p) >= comp

    def test_lemma8_quadratic(self):
        p = SystemParams(n=1024)
        r1 = lemma8_confusion_bound(0.01, p)
        r2 = lemma8_confusion_bound(0.02, p)
        assert r2 == pytest.approx(4 * r1, rel=0.01)

    def test_union_bound_clamped(self):
        assert union_bound_failure(0.5, 10) == 1.0
        assert union_bound_failure(0.01, 10) == pytest.approx(0.1)


class TestGroupSizeForTarget:
    def test_polylog_much_smaller_than_poly(self):
        n = 2**20
        thr = 1 / 3
        tiny = group_size_for_target(n, 0.05, thr, 1 / math.log(n) ** 3)
        classic = group_size_for_target(n, 0.05, thr, 1 / n**2)
        assert tiny < classic / 3

    def test_scaling_shapes(self):
        """Tiny sizes grow ~log log n; classic ~log n (the paper's headline)."""
        thr = 1 / 3
        tiny = [
            group_size_for_target(n, 0.05, thr, 1 / math.log(n) ** 3)
            for n in (2**10, 2**20, 2**30)
        ]
        classic = [
            group_size_for_target(n, 0.05, thr, 1 / n**2)
            for n in (2**10, 2**20, 2**30)
        ]
        # classic sizes scale like log n (x3 from 2^10 to 2^30); tiny sizes
        # move much less (log log n plus the shrinking 1/ln^3 target)
        assert classic[2] / classic[0] > 2.0
        assert tiny[2] / tiny[0] < classic[2] / classic[0]
        assert tiny[2] / tiny[0] < 3.0

    def test_loose_target_small_group(self):
        assert group_size_for_target(1024, 0.05, 1 / 3, 0.9) <= 3


class TestCostRows:
    def test_two_constructions(self):
        rows = corollary1_cost_rows(2**16)
        assert len(rows) == 2
        tiny, classic = rows
        assert tiny["routing"] < classic["routing"]

    def test_ratio_grows_with_n(self):
        def ratio(n):
            t, c = corollary1_cost_rows(n)
            return c["routing"] / t["routing"]

        assert ratio(2**30) > ratio(2**10)


class TestStats:
    def test_ks_uniform_accepts_uniform(self):
        t = ks_uniform(np.random.default_rng(0).random(3000))
        assert t.looks_uniform()

    def test_ks_uniform_rejects_clustered(self):
        t = ks_uniform(0.1 * np.random.default_rng(0).random(3000))
        assert not t.looks_uniform()

    def test_ks_empty(self):
        assert ks_uniform(np.array([])).looks_uniform()

    def test_proportion_ci_brackets_point(self):
        p, lo, hi = proportion_ci(30, 100)
        assert lo <= p <= hi
        assert p == pytest.approx(0.3)

    def test_proportion_ci_rare_events(self):
        p, lo, hi = proportion_ci(0, 1000)
        assert lo == 0.0 and hi < 0.01

    def test_bootstrap_ci(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(5.0, 1.0, size=400)
        point, lo, hi = bootstrap_ci(vals, rng)
        assert lo < 5.0 < hi
        assert point == pytest.approx(5.0, abs=0.2)

    def test_bootstrap_empty(self):
        assert bootstrap_ci(np.array([]), np.random.default_rng(0)) == (0, 0, 0)


class TestTables:
    def test_render_alignment(self):
        s = render_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = s.splitlines()
        assert lines[0] == "T"
        assert all(len(l) == len(lines[1]) for l in lines[1:])

    def test_table_result_roundtrip(self):
        t = TableResult("EX", "demo", ["x", "y"])
        t.add_row(1, "a")
        t.add_row(2, "b")
        t.add_note("note")
        out = t.render()
        assert "[EX] demo" in out and "note" in out
        assert t.column("y") == ["a", "b"]

    def test_column_unknown_raises(self):
        t = TableResult("EX", "demo", ["x"])
        with pytest.raises(ValueError):
            t.column("nope")


class TestTableJson:
    """JSON round trip — the contract the on-disk result cache rests on."""

    def _table(self) -> TableResult:
        t = TableResult("EX", "demo title", ["name", "count", "rate", "ok"])
        t.add_row("alpha", 3, 0.125, "ok")
        t.add_row("beta", 0, 1.0, "FAIL")
        t.add_note("first note")
        t.add_note("second | note: with punctuation")
        return t

    def test_round_trip_equal_fields(self):
        t = self._table()
        back = TableResult.from_json(t.to_json())
        assert back.experiment == t.experiment
        assert back.title == t.title
        assert back.headers == t.headers
        assert back.rows == t.rows
        assert back.notes == t.notes

    def test_round_trip_render_identical(self):
        t = self._table()
        assert TableResult.from_json(t.to_json()).render() == t.render()

    def test_non_str_cells_keep_types(self):
        t = TableResult("EX", "t", ["i", "f", "s", "none"])
        t.add_row(7, 2.5, "txt", None)
        back = TableResult.from_json(t.to_json())
        assert back.rows == [[7, 2.5, "txt", None]]
        assert isinstance(back.rows[0][0], int)
        assert isinstance(back.rows[0][1], float)

    def test_numpy_cells_coerce_render_identical(self):
        t = TableResult("EX", "t", ["i", "f"])
        t.add_row(np.int64(42), np.float64(0.25))
        back = TableResult.from_json(t.to_json())
        assert back.rows == [[42, 0.25]]
        assert back.render() == t.render()

    def test_empty_table(self):
        t = TableResult("EX", "empty", ["a"])
        back = TableResult.from_json(t.to_json())
        assert back.rows == [] and back.notes == []
        assert back.render() == t.render()
