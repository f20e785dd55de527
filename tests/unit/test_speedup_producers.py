"""The two producers of the paired speedup lines.

``tools/smoke_vectorized.py`` appends one ``cells`` line per process-backend
point and ``benchmarks/bench_serve.py`` one ``serve`` line; CI's
``paired-gate`` job hands each side's file to ``tools/judge_speedups.py``.
The smoke tool runs here on a stub experiment and a stub clock, so no case
times a real experiment; the serve bench runs one small live point.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import pathlib
from types import SimpleNamespace

import pytest

import repro.experiments
import repro.serve
import repro.sim.pool

ROOT = pathlib.Path(__file__).resolve().parents[2]


def load(relpath: str):
    spec = importlib.util.spec_from_file_location(
        pathlib.Path(relpath).stem, ROOT / relpath
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def smoke():
    return load("tools/smoke_vectorized.py")


@pytest.fixture(scope="module")
def bench_serve():
    return load("benchmarks/bench_serve.py")


@pytest.fixture(scope="module")
def judge():
    return load("tools/judge_speedups.py")


def read_lines(path: pathlib.Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


class StubRuns:
    """``run_experiment`` on a stub clock.

    Each call advances the clock by its backend's next wall and returns a
    table that renders the experiment and its kwargs; a process-backend
    table of an experiment in ``diverge`` renders differently.  ``cores``
    is the smoke tool's ``os.cpu_count()``.
    """

    def __init__(self):
        self.now = 0.0
        self.cores = 2
        self.calls: list[tuple] = []
        self.diverge: set[str] = set()
        self.set_walls(serial=[2.0], process=[0.5])

    def set_walls(self, serial, process):
        self.walls = {"serial": itertools.cycle(serial),
                      "process": itertools.cycle(process)}

    def perf_counter(self) -> float:
        return self.now

    def run_experiment(self, name, exec_config=None, **kwargs):
        backend = "serial" if exec_config is None else exec_config.backend
        workers = None if exec_config is None else exec_config.workers
        self.calls.append((name, backend, workers, kwargs))
        self.now += next(self.walls[backend])
        text = f"{name} {sorted(kwargs.items())}"
        if backend == "process" and name in self.diverge:
            text += " reordered"
        return SimpleNamespace(render=lambda: text)


@pytest.fixture
def runs(monkeypatch, smoke):
    stub = StubRuns()
    monkeypatch.setattr(repro.experiments, "run_experiment", stub.run_experiment)
    monkeypatch.setattr(repro.sim.pool, "get_pool", lambda workers: None)
    monkeypatch.setattr(repro.sim.pool, "shutdown_pool", lambda: None)
    monkeypatch.setattr(smoke, "time",
                        SimpleNamespace(perf_counter=stub.perf_counter))
    monkeypatch.setattr(smoke, "os",
                        SimpleNamespace(cpu_count=lambda: stub.cores))
    return stub


@pytest.fixture
def out(tmp_path) -> pathlib.Path:
    return tmp_path / "speedups.jsonl"


class TestSmokeVectorized:
    def test_appends_one_cells_line_per_point(self, smoke, runs, out):
        assert smoke.main(["--out", str(out)]) == 0
        assert read_lines(out) == [
            {"kind": "cells", "point": "E1 n=4096", "speedup": 4.0},
            {"kind": "cells", "point": "E2 n=4096", "speedup": 4.0},
            {"kind": "cells", "point": "E5 n=2048", "speedup": 4.0},
        ]

    def test_the_judge_reads_every_point(self, smoke, judge, runs, out):
        smoke.main(["--out", str(out)])
        assert judge.read_side(str(out)) == {
            ("cells", f"{name} n={case['n']}"): [4.0]
            for name, case in smoke.PROCESS_BENCH_CASES.items()
        }

    def test_speedup_is_best_serial_wall_over_best_process_wall(
            self, smoke, runs, out):
        runs.set_walls(serial=[3.0, 2.0, 2.5], process=[1.0, 0.8, 0.9])
        smoke.main(["--out", str(out), "--only", "E1"])
        assert read_lines(out)[0]["speedup"] == 2.5

    def test_backends_alternate_on_the_same_kwargs(self, smoke, runs, out):
        smoke.main(["--out", str(out), "--only", "E5", "--seed", "7"])
        kwargs = dict(fast=False, seed=7)
        assert runs.calls == [("E5", "serial", None, kwargs),
                              ("E5", "process", 4, kwargs)] * 3

    def test_appends_and_never_truncates(self, smoke, runs, out):
        smoke.main(["--out", str(out)])
        smoke.main(["--out", str(out)])
        assert len(read_lines(out)) == 2 * len(smoke.PROCESS_BENCH_CASES)

    def test_quick_runs_the_fast_scale_points(self, smoke, runs, out):
        assert smoke.main(["--out", str(out), "--quick"]) == 0
        assert [line["point"] for line in read_lines(out)] == [
            "E1 n=1024", "E2 n=1024", "E5 n=512",
        ]
        assert {call[2] for call in runs.calls} == {None, 2}
        assert all(call[3] == dict(fast=True, seed=0) for call in runs.calls)

    def test_only_selects_points_ignoring_case(self, smoke, runs, out):
        smoke.main(["--out", str(out), "--only", "e5", "E2"])
        assert [line["point"] for line in read_lines(out)] == [
            "E2 n=4096", "E5 n=2048",
        ]

    def test_unknown_only_case_is_a_usage_error(self, smoke, runs, out,
                                                capsys):
        assert smoke.main(["--out", str(out), "--only", "E9"]) == 2
        assert "unknown case(s) ['E9']" in capsys.readouterr().err
        assert runs.calls == [] and not out.exists()

    def test_differing_tables_fail_and_record_no_speedup(self, smoke, runs,
                                                         out, capsys):
        runs.diverge = {"E2"}
        assert smoke.main(["--out", str(out)]) == 1
        assert [line["point"] for line in read_lines(out)] == [
            "E1 n=4096", "E5 n=2048",
        ]
        assert ("FAIL: E2: in-process and process-backend tables differ"
                in capsys.readouterr().err)

    def test_bar_is_not_enforced_below_four_cores(self, smoke, runs, out,
                                                  capsys):
        runs.set_walls(serial=[1.0], process=[2.0])
        assert smoke.main(["--out", str(out), "--only", "E1"]) == 0
        assert read_lines(out)[0]["speedup"] == 0.5
        assert "bar not enforced: 2 core(s)" in capsys.readouterr().out

    def test_bar_is_enforced_on_four_cores(self, smoke, runs, out, capsys):
        runs.cores = 4
        runs.set_walls(serial=[1.0], process=[2.0])
        assert smoke.main(["--out", str(out)]) == 1
        err = capsys.readouterr().err
        for name in smoke.PROCESS_BENCH_CASES:
            assert f"FAIL: {name}: process backend did not beat serial" in err
        # the speedup is recorded all the same: the gate judges it
        assert len(read_lines(out)) == len(smoke.PROCESS_BENCH_CASES)

    @pytest.mark.parametrize("margin, rc", [("0.8", 0), ("1.0", 1)])
    def test_process_margin_scales_the_bar(self, smoke, runs, out, margin,
                                           rc):
        runs.cores = 4
        runs.set_walls(serial=[0.9], process=[1.0])
        assert smoke.main(["--out", str(out), "--only", "E1",
                           "--process-margin", margin]) == rc

    def test_quick_points_are_parity_only(self, smoke, runs, out, capsys):
        runs.cores = 4
        runs.set_walls(serial=[1.0], process=[2.0])
        assert smoke.main(["--out", str(out), "--quick"]) == 0
        assert "parity-only case" in capsys.readouterr().out


SERVE_POINT = ["--n", "64", "--requests", "50", "--epochs", "1",
               "--probes", "50", "--epoch-period", "0.05",
               "--concurrency", "4", "--verify"]


class TestBenchServe:
    def test_appends_one_verified_serve_line(self, bench_serve, judge, out):
        assert bench_serve.main(SERVE_POINT + ["--out", str(out)]) == 0
        (line,) = read_lines(out)
        assert line["kind"] == "serve" and line["point"] == "SERVE n=64"
        assert line["speedup"] > 0
        assert judge.read_side(str(out)) == {
            ("serve", "SERVE n=64"): [line["speedup"]]
        }

    def test_diverged_responses_record_no_speedup(self, bench_serve, out,
                                                  monkeypatch, capsys):
        monkeypatch.setattr(repro.serve, "verify_responses",
                            lambda *args: ["response 3 differs"])
        assert bench_serve.main(SERVE_POINT + ["--out", str(out)]) == 1
        assert not out.exists()
        assert "1 response(s) diverged" in capsys.readouterr().err

    def test_appends_and_never_truncates(self, bench_serve, out,
                                         monkeypatch):
        line = dict(kind="serve", point="SERVE n=64", speedup=0.5)
        monkeypatch.setattr(bench_serve, "run_point", lambda args: (line, 0))
        bench_serve.main(["--out", str(out)])
        bench_serve.main(["--out", str(out)])
        assert read_lines(out) == [line, line]
