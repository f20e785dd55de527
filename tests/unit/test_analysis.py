"""Unit tests: theory predictions, stats, tables (repro.analysis)."""

import json
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


class TestBenchIO:
    """Machine-readable benchmark rows (repro.analysis.benchio)."""

    def _row(self, **kw):
        from repro.analysis import bench_row

        base = dict(experiment="e2", n=4096, backend="serial",
                    wall_s=1.234567891, cells=1, trials=100_000)
        base.update(kw)
        return bench_row(**base)

    def test_row_shape_and_normalization(self):
        row = self._row()
        assert row == {
            "experiment": "E2", "n": 4096, "backend": "serial",
            "wall_s": 1.234568, "cells": 1, "trials": 100_000,
        }

    def test_read_missing_and_corrupt(self, tmp_path):
        from repro.analysis import read_bench_rows

        assert read_bench_rows(tmp_path / "nope.json") == []
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert read_bench_rows(bad) == []
        bad.write_text('{"a": 1}')  # not a list
        assert read_bench_rows(bad) == []

    def test_record_merges_by_key(self, tmp_path):
        from repro.analysis import read_bench_rows, record_bench_rows

        path = tmp_path / "BENCH_vectorized.json"
        record_bench_rows(path, [self._row(wall_s=2.0)])
        record_bench_rows(path, [
            self._row(wall_s=1.0),                       # replaces same key
            self._row(backend="vectorized", wall_s=0.1),  # new key
        ])
        rows = read_bench_rows(path)
        assert len(rows) == 2
        by_backend = {r["backend"]: r for r in rows}
        assert by_backend["serial"]["wall_s"] == 1.0
        assert by_backend["vectorized"]["wall_s"] == 0.1

    def test_record_sorted_and_stable(self, tmp_path):
        from repro.analysis import record_bench_rows

        path = tmp_path / "bench.json"
        record_bench_rows(path, [
            self._row(experiment="E3", n=8192),
            self._row(experiment="E2", n=512),
            self._row(experiment="E2", n=4096),
        ])
        first = path.read_text()
        record_bench_rows(path, [])  # no-op merge must not reorder
        assert path.read_text() == first
        keys = [(r["experiment"], r["n"]) for r in json.loads(first)]
        assert keys == [("E2", 512), ("E2", 4096), ("E3", 8192)]


class TestBenchIOMergeEdgeCases:
    """Merge-by-key edge cases for the perf-ledger file: multiple writers,
    rows with missing fields, and concurrent bench scripts appending."""

    def _row(self, **kw):
        from repro.analysis import bench_row

        base = dict(experiment="e2", n=4096, backend="serial",
                    wall_s=1.0, cells=1, trials=100)
        base.update(kw)
        return bench_row(**base)

    def test_duplicate_keys_across_writers_last_wins(self, tmp_path):
        from repro.analysis import read_bench_rows, record_bench_rows

        path = tmp_path / "bench.json"
        # writer A (e.g. benchmarks/bench_sweep.py) ...
        record_bench_rows(path, [self._row(wall_s=2.0)])
        # ... then writer B (tools/smoke_vectorized.py) re-records the key
        record_bench_rows(path, [self._row(wall_s=0.5)])
        rows = read_bench_rows(path)
        assert len(rows) == 1 and rows[0]["wall_s"] == 0.5

    def test_duplicate_keys_within_one_batch_last_wins(self, tmp_path):
        from repro.analysis import read_bench_rows, record_bench_rows

        path = tmp_path / "bench.json"
        record_bench_rows(path, [self._row(wall_s=3.0), self._row(wall_s=1.0)])
        rows = read_bench_rows(path)
        assert len(rows) == 1 and rows[0]["wall_s"] == 1.0

    def test_concurrent_writers_union_of_experiments(self, tmp_path):
        from repro.analysis import read_bench_rows, record_bench_rows

        path = tmp_path / "bench.json"
        # two bench scripts appending different experiments to one file:
        # each merge must preserve the other's rows
        record_bench_rows(path, [self._row(experiment="E4", n=2048)])
        record_bench_rows(path, [self._row(experiment="E12", n=4096)])
        record_bench_rows(path, [self._row(experiment="E4", n=2048, wall_s=9.0)])
        rows = read_bench_rows(path)
        assert {(r["experiment"], r["n"]) for r in rows} == {
            ("E4", 2048), ("E12", 4096)
        }
        by_exp = {r["experiment"]: r for r in rows}
        assert by_exp["E4"]["wall_s"] == 9.0

    def test_stored_rows_missing_fields_are_preserved_not_fatal(self, tmp_path):
        import json as _json

        from repro.analysis import read_bench_rows, record_bench_rows

        path = tmp_path / "bench.json"
        # a foreign/partial row already in the file (e.g. written by an
        # older tool version missing the trials field)
        path.write_text(_json.dumps([
            {"experiment": "E3", "n": 8192, "backend": "serial", "wall_s": 1.0},
            "not-a-dict-row",
        ]))
        out = record_bench_rows(path, [self._row()])
        keys = {(r.get("experiment"), r.get("n"), r.get("backend")) for r in out}
        assert ("E3", 8192, "serial") in keys      # partial row kept
        assert ("E2", 4096, "serial") in keys      # new row merged
        assert len(read_bench_rows(path)) == 2     # non-dict row dropped

    def test_new_rows_missing_fields_rejected(self, tmp_path):
        from repro.analysis import record_bench_rows

        with pytest.raises(TypeError):
            record_bench_rows(tmp_path / "bench.json",
                              [dict(experiment="E2", n=4096)])


class TestBenchDiff:
    """diff_bench_rows — one column per row key: the memory gate's
    peak_rss_mb and the warn-only wall-clock drift."""

    def _rows(self, wall_serial, wall_vec):
        from repro.analysis import bench_row

        return [
            bench_row("E4", 2048, "serial", wall_serial, 1, 100),
            bench_row("E4", 2048, "vectorized", wall_vec, 1, 100),
        ]

    def test_no_regression_within_tolerance(self):
        from repro.analysis.benchio import diff_bench_rows

        deltas, regressions = diff_bench_rows(
            self._rows(10.0, 1.0), self._rows(11.0, 1.1), "wall_s",
            max_regression=0.20,
        )
        assert len(deltas) == 2
        assert regressions == []

    def test_regression_flagged_beyond_tolerance(self):
        from repro.analysis.benchio import diff_bench_rows

        deltas, regressions = diff_bench_rows(
            self._rows(10.0, 1.0), self._rows(10.0, 1.5), "wall_s",
            max_regression=0.20,
        )
        assert len(regressions) == 1
        assert regressions[0]["backend"] == "vectorized"
        assert regressions[0]["ratio"] == 1.5
        assert (regressions[0]["baseline"], regressions[0]["current"]) == (
            1.0, 1.5
        )

    def test_noise_floor_rows_never_flagged(self):
        from repro.analysis.benchio import diff_bench_rows

        # 3x slower, but both sides are sub-noise-floor micro measurements
        deltas, regressions = diff_bench_rows(
            self._rows(10.0, 0.004), self._rows(10.0, 0.012), "wall_s",
            max_regression=0.20, floor=0.05,
        )
        assert len(deltas) == 2
        assert regressions == []

    def test_unmatched_keys_skipped(self):
        from repro.analysis.benchio import bench_row, diff_bench_rows

        baseline = [bench_row("E2", 4096, "serial", 1.0, 1, 10)]
        current = [bench_row("E3", 8192, "serial", 9.0, 1, 10)]
        deltas, regressions = diff_bench_rows(baseline, current, "wall_s")
        assert deltas == [] and regressions == []

    def test_current_rows_missing_wall_s_skipped_not_fatal(self):
        from repro.analysis.benchio import bench_row, diff_bench_rows

        baseline = [bench_row("E2", 4096, "serial", 1.0, 1, 10)]
        current = [{"experiment": "E2", "n": 4096, "backend": "serial"}]
        deltas, regressions = diff_bench_rows(baseline, current, "wall_s")
        assert deltas == [] and regressions == []

    def _peaks(self, peak_mb):
        from repro.analysis import bench_row

        return [bench_row("SCALE", 131072, "int32", 0.5, 1, 100,
                          peak_rss_mb=peak_mb)]

    def test_peak_growth_beyond_tolerance_flagged(self):
        from repro.analysis.benchio import diff_bench_rows

        deltas, regressions = diff_bench_rows(
            self._peaks(150.0), self._peaks(181.0), "peak_rss_mb",
            max_regression=0.20, floor=32.0,
        )
        assert len(deltas) == 1 and len(regressions) == 1
        assert regressions[0]["ratio"] == round(181.0 / 150.0, 4)

    def test_peak_growth_exactly_at_tolerance_passes(self):
        from repro.analysis.benchio import diff_bench_rows

        _, regressions = diff_bench_rows(
            self._peaks(150.0), self._peaks(180.0), "peak_rss_mb",
            max_regression=0.20, floor=32.0,
        )
        assert regressions == []

    def test_peaks_under_the_floor_never_flagged(self):
        from repro.analysis.benchio import diff_bench_rows

        deltas, regressions = diff_bench_rows(
            self._peaks(8.0), self._peaks(30.0), "peak_rss_mb",
            max_regression=0.20, floor=32.0,
        )
        assert len(deltas) == 1 and regressions == []

    def test_rows_without_the_column_skipped(self):
        from repro.analysis import bench_row
        from repro.analysis.benchio import diff_bench_rows

        # the wall-clock rows carry no peak: nothing to compare
        rows = [bench_row("E2", 4096, "serial", 1.0, 1, 10)]
        assert diff_bench_rows(rows, rows, "peak_rss_mb") == ([], [])


# the process backend's cell-scheduling pair, as the perf ledger gates it
CELLS = ("cells-serial", "cells-process")


class TestSpeedupRows:
    """Machine-invariant speedup pairing (repro.analysis.benchio)."""

    def _rows(self, serial=2.0, process=0.2):
        from repro.analysis.benchio import bench_row

        return [
            bench_row("E2", 4096, "cells-serial", serial, 1, 100),
            bench_row("E2", 4096, "cells-process", process, 1, 100),
        ]

    def test_pairs_serial_and_vectorized(self):
        from repro.analysis.benchio import speedup_rows

        (row,) = speedup_rows(self._rows(), CELLS)
        assert row["experiment"] == "E2" and row["n"] == 4096
        assert row["speedup"] == 10.0
        # fields named for the pair's roles, whatever the pair
        assert (row["base_wall_s"], row["fast_wall_s"]) == (2.0, 0.2)

    def test_single_backend_points_skipped(self):
        from repro.analysis.benchio import bench_row, speedup_rows

        rows = self._rows() + [bench_row("E3", 8192, "cells-process", 0.1, 12, 10)]
        assert len(speedup_rows(rows, CELLS)) == 1  # E3 has no serial partner

    def test_calibration_and_foreign_backends_excluded(self):
        from repro.analysis.benchio import calibration_row, speedup_rows

        rows = self._rows() + [
            calibration_row(0.01),
            {"experiment": "E2", "n": 4096, "backend": "process", "wall_s": 1.0},
        ]
        (row,) = speedup_rows(rows, CELLS)
        assert row["experiment"] == "E2"

    def test_zero_or_missing_wall_skipped(self):
        from repro.analysis.benchio import speedup_rows

        rows = self._rows(process=0.0)
        assert speedup_rows(rows, CELLS) == []


class TestDiffBenchRatios:
    """The heterogeneous-runner perf gate: speedup ratios, not wall clock."""

    def _rows(self, serial, process):
        from repro.analysis.benchio import bench_row

        return [
            bench_row("E2", 4096, "cells-serial", serial, 1, 100),
            bench_row("E2", 4096, "cells-process", process, 1, 100),
        ]

    def test_uniform_machine_slowdown_is_not_a_regression(self):
        from repro.analysis.benchio import diff_bench_ratios

        # a 3x slower runner scales both backends; the ratio is unchanged
        baseline = self._rows(2.0, 0.2)
        current = self._rows(6.0, 0.6)
        deltas, regressions = diff_bench_ratios(baseline, current, backends=CELLS)
        assert len(deltas) == 1 and deltas[0]["ratio"] == 1.0
        assert regressions == []

    def test_vectorized_regression_flagged(self):
        from repro.analysis.benchio import diff_bench_ratios

        baseline = self._rows(2.0, 0.2)   # 10x
        current = self._rows(2.0, 0.4)    # 5x -> ratio 0.5
        deltas, regressions = diff_bench_ratios(baseline, current, backends=CELLS)
        assert len(regressions) == 1
        assert regressions[0]["current"] == 5.0
        assert regressions[0]["baseline"] == 10.0

    def test_noise_floor_reports_but_never_flags(self):
        from repro.analysis.benchio import diff_bench_ratios

        # microsecond-scale pooled cells: ratio is scheduler jitter
        baseline = self._rows(0.004, 0.001)
        current = self._rows(0.004, 0.003)
        deltas, regressions = diff_bench_ratios(baseline, current, backends=CELLS)
        assert len(deltas) == 1 and regressions == []

    def test_new_measurement_points_skipped(self):
        from repro.analysis.benchio import diff_bench_ratios

        deltas, regressions = diff_bench_ratios(
            [], self._rows(2.0, 0.2), backends=CELLS
        )
        assert deltas == [] and regressions == []


class TestCalibration:
    def test_measure_calibration_positive_and_fast(self):
        from repro.analysis.benchio import measure_calibration

        wall = measure_calibration(repeats=1)
        assert 0.0 < wall < 10.0

    def test_calibration_row_shape(self):
        from repro.analysis.benchio import CALIBRATION_EXPERIMENT, calibration_row

        row = calibration_row(0.0123456789)
        assert row["experiment"] == CALIBRATION_EXPERIMENT
        assert row["n"] == 0 and row["backend"] == "host"
        assert row["wall_s"] == 0.012346
