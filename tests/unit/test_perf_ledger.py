"""The perf-ledger gate matrix (``tools/perf_ledger.py``).

Each fixture under ``tests/fixtures/perf_ledger/`` holds the rows of one
real run, taken on a 2-vCPU host:

* ``BENCH_vectorized.json`` — ``tools/smoke_vectorized.py --quick``;
* ``BENCH_serve.json`` — ``benchmarks/bench_serve.py --n 128
  --requests 300 --verify``.

Every case is an edited copy of one of them, run through the tool with
the flag pairs CI passes.  The expected exit codes and flagged keys are
the ones the separate gates gave with CI's threshold flags at commit
006c047, before they became one loop, so the loop catches exactly what
they caught.  No case runs a benchmark.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
FIXTURES = ROOT / "tests" / "fixtures" / "perf_ledger"

# ledger -> (fixture, CI's flag pair, gated point, the point's base and
# fast backends)
LEDGERS = {
    "cells": ("BENCH_vectorized.json", ("--baseline", "--current"),
              ("E1", 1024), ("cells-serial", "cells-process")),
    "serve": ("BENCH_serve.json", ("--serve-baseline", "--serve-current"),
              ("SERVE", 128), ("offline", "closed")),
}
# the gates' speedup-drop thresholds and noise floors (on the fast side's
# wall, seconds)
THRESHOLD = {"cells": 0.20, "serve": 0.25}
FLOOR = {"cells": 0.05, "serve": 0.05}
FLAGGED_KEY = {"cells": "E1 n=1024", "serve": "SERVE n=128"}

# recorded from the tool at 006c047 with CI's arguments of the time
# (cells: --max-regression 0.20; serve: --max-regression 0.25): the same
# for both ledgers
EXPECTED = {
    "unchanged": (0, False),
    "past_threshold": (1, True),
    "at_threshold": (0, False),
    "under_noise_floor": (0, False),
    "key_missing_from_baseline": (0, False),
    "missing_baseline": (0, False),
    "empty_baseline": (0, False),
    "corrupt_baseline": (0, False),
    "empty_current": (1, False),
}


def _rows(ledger: str) -> list[dict]:
    return json.loads((FIXTURES / LEDGERS[ledger][0]).read_text())


def _measure(rows: list[dict], ledger: str, *walls: float) -> list[dict]:
    """``rows`` with the gated point's base and fast walls replaced."""
    _, _, (experiment, n), backends = LEDGERS[ledger]
    rows = copy.deepcopy(rows)
    for row in rows:
        if (row["experiment"], row["n"]) == (experiment, n):
            row["wall_s"] = walls[backends.index(row["backend"])]
    return rows


def _value(rows: list[dict], ledger: str) -> tuple[float, ...]:
    _, _, (experiment, n), backends = LEDGERS[ledger]
    by_backend = {
        r["backend"]: r["wall_s"] for r in rows
        if (r["experiment"], r["n"]) == (experiment, n)
    }
    return tuple(by_backend[b] for b in backends)


def _regressed(rows: list[dict], ledger: str, factor: float) -> list[dict]:
    """The gated point made worse by ``factor``: its fast wall grows, so
    its speedup shrinks."""
    base, fast = _value(rows, ledger)
    return _measure(rows, ledger, base, fast * factor)


def case_files(ledger: str, case: str) -> tuple[object, object]:
    """(baseline, current) for one case: a row list, ``None`` for a
    missing file, or the raw text of a file."""
    rows, thr, floor = _rows(ledger), THRESHOLD[ledger], FLOOR[ledger]
    just_past = 1.01 / (1.0 - thr)
    if case == "unchanged":
        return rows, rows
    if case == "past_threshold":
        return rows, _regressed(rows, ledger, just_past)
    if case == "at_threshold":  # speedup 1.0 -> 1 - thr
        return (_measure(rows, ledger, 1.0, 1.0),
                _measure(rows, ledger, 1.0 - thr, 1.0))
    if case == "under_noise_floor":
        # a 4x regression, every measurement of it under the floor
        return (_measure(rows, ledger, 0.8 * floor, 0.2 * floor),
                _measure(rows, ledger, 0.8 * floor, 0.8 * floor))
    if case == "key_missing_from_baseline":
        # the baseline measured the point at another n: nothing to compare
        _, _, point, _ = LEDGERS[ledger]
        baseline = [
            dict(r, n=2 * r["n"]) if (r["experiment"], r["n"]) == point else r
            for r in rows
        ]
        return baseline, _regressed(rows, ledger, just_past)
    if case == "missing_baseline":
        return None, rows
    if case == "empty_baseline":
        return "", rows
    if case == "corrupt_baseline":
        return '[{"experiment": "E1", "n": 10', rows
    if case == "empty_current":
        return rows, ""
    raise KeyError(case)


def write_case(tmp_path: pathlib.Path, ledger: str, case: str) -> list[str]:
    """Write one case's files under ``tmp_path``; returns CI's arguments."""
    base_flag, cur_flag = LEDGERS[ledger][1]
    argv = []
    for flag, content, name in zip(
        (base_flag, cur_flag), case_files(ledger, case),
        ("baseline.json", "current.json"),
    ):
        path = tmp_path / name
        if content is not None:
            path.write_text(
                content if isinstance(content, str)
                else json.dumps(content, indent=2) + "\n"
            )
        argv += [flag, str(path)]
    return argv


def flagged_keys(stderr: str) -> list[str]:
    """The keys of a "... regressed beyond N%: K1, K2" summary line."""
    keys = []
    for line in stderr.splitlines():
        if "regressed beyond" in line:
            keys += line.rsplit(": ", 1)[1].split(", ")
    return keys


@pytest.fixture(scope="module")
def perf_ledger():
    spec = importlib.util.spec_from_file_location(
        "perf_ledger", ROOT / "tools" / "perf_ledger.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("case", sorted(EXPECTED))
@pytest.mark.parametrize("ledger", sorted(LEDGERS))
def test_gate_matrix(perf_ledger, tmp_path, capsys, ledger, case):
    argv = write_case(tmp_path, ledger, case)
    rc = perf_ledger.main(argv)
    flagged = flagged_keys(capsys.readouterr().err)
    expected_rc, expect_flag = EXPECTED[case]
    assert rc == expected_rc
    assert flagged == ([FLAGGED_KEY[ledger]] if expect_flag else [])


def test_gates_hold_ci_values(perf_ledger):
    # the per-ledger constants CI's threshold flags used to pass
    table = {
        gate.artifact: (gate.threshold, gate.floor)
        for gate in perf_ledger.GATES
    }
    assert table == {
        "BENCH_vectorized.json": (0.20, 0.05),
        "BENCH_serve.json": (0.25, 0.05),
    }


def test_cells_ledger_warns_on_wall_drift_but_passes(perf_ledger, tmp_path,
                                                     capsys):
    # every row 3x slower: a slower host, the speedups unchanged
    rows = _rows("cells")
    slower = [dict(r, wall_s=r["wall_s"] * 3) for r in rows]
    base, cur = tmp_path / "b.json", tmp_path / "c.json"
    base.write_text(json.dumps(rows))
    cur.write_text(json.dumps(slower))
    assert perf_ledger.main(["--baseline", str(base), "--current", str(cur)]) == 0
    out = capsys.readouterr().out
    assert "host calibration" in out
    assert "slower (warn-only)" in out
    assert "REGRESSION" not in out


@pytest.mark.parametrize("argv", [
    [],
    ["--baseline", "b.json"],
    ["--serve-current", "c.json"],
    ["--scale-baseline", "b.json", "--scale-current", "c.json"],
])
def test_flag_pairs_are_usage_errors(perf_ledger, argv):
    with pytest.raises(SystemExit) as exc:
        perf_ledger.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", [
    "--max-regression", "--mem-max-regression", "--min-wall", "--warn-only",
])
def test_threshold_flags_are_gone(perf_ledger, tmp_path, flag):
    argv = write_case(tmp_path, "cells", "unchanged")
    with pytest.raises(SystemExit) as exc:
        perf_ledger.main([*argv, flag, "0.5"])
    assert exc.value.code == 2
