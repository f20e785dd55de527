"""The paired speedup judge (``tools/judge_speedups.py``).

Each case writes two sides of speedup lines, as ``tools/smoke_vectorized.py``
and ``benchmarks/bench_serve.py`` append them, and runs the judge on them.
No case runs a benchmark.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]

# one point of each kind, as the producers name them
POINTS = {"cells": "E5 n=2048", "serve": "SERVE n=256"}
BASE = {
    ("cells", "E1 n=4096"): [1.5, 1.6, 1.4, 1.55, 1.45],
    ("cells", "E5 n=2048"): [2.0, 2.0, 2.0],
    ("serve", "SERVE n=256"): [1.0, 1.0, 1.0],
}


@pytest.fixture(scope="module")
def judge():
    spec = importlib.util.spec_from_file_location(
        "judge_speedups", ROOT / "tools" / "judge_speedups.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_side(path: pathlib.Path, points: dict) -> str:
    path.write_text("".join(
        json.dumps(dict(kind=kind, point=point, speedup=s)) + "\n"
        for (kind, point), speedups in points.items() for s in speedups
    ))
    return str(path)


def run(judge, tmp_path, base, head, capsys):
    rc = judge.main([write_side(tmp_path / "base.jsonl", base),
                     write_side(tmp_path / "head.jsonl", head)])
    out = capsys.readouterr()
    return rc, out.out, out.err


def scaled(kind: str, factor: float) -> dict:
    key = (kind, POINTS[kind])
    return {**BASE, key: [s * factor for s in BASE[key]]}


def test_bounds_are_pinned(judge):
    assert judge.BOUNDS == {"cells": 0.20, "serve": 0.25}


def test_identical_sides_pass_and_report_every_point(judge, tmp_path, capsys):
    rc, out, _ = run(judge, tmp_path, BASE, BASE, capsys)
    assert rc == 0
    assert "REGRESSED" not in out
    # medians, quartiles and the ratio of each point
    assert "cells E1 n=4096    base 1.500 [1.425, 1.575]  head 1.500 " \
           "[1.425, 1.575]  ratio 1.000  ok (bound 20%)" in out
    assert len(out.splitlines()) == len(BASE)


@pytest.mark.parametrize("kind", sorted(POINTS))
def test_point_past_its_bound_fails_and_is_named(judge, tmp_path, capsys,
                                                 kind):
    factor = 1 - judge.BOUNDS[kind] - 0.01
    rc, out, err = run(judge, tmp_path, BASE, scaled(kind, factor), capsys)
    assert rc == 1
    name = f"{kind} {POINTS[kind]}"
    assert err.strip() == f"judge: failed: {name}"
    assert [line for line in out.splitlines() if "REGRESSED" in line] == [
        line for line in out.splitlines() if line.startswith(name)
    ]


@pytest.mark.parametrize("kind", sorted(POINTS))
def test_point_exactly_at_its_bound_passes(judge, tmp_path, capsys, kind):
    rc, out, _ = run(judge, tmp_path, BASE,
                     scaled(kind, 1 - judge.BOUNDS[kind]), capsys)
    assert rc == 0
    assert "REGRESSED" not in out


@pytest.mark.parametrize("kind, rc", [("cells", 1), ("serve", 0)])
def test_each_kind_has_its_own_bound(judge, tmp_path, capsys, kind, rc):
    # 22% below the base: past the cells bound, inside the serve bound
    assert run(judge, tmp_path, BASE, scaled(kind, 0.78), capsys)[0] == rc


def test_every_failed_point_is_named(judge, tmp_path, capsys):
    head = {k: v for k, v in scaled("cells", 0.5).items() if k[0] != "serve"}
    head[("cells", "E1 n=4096")] = [0.5] * 5
    rc, out, err = run(judge, tmp_path, BASE, head, capsys)
    assert rc == 1
    assert err.strip() == ("judge: failed: cells E1 n=4096, cells E5 n=2048, "
                           "serve SERVE n=256")
    assert len(out.splitlines()) == len(BASE)


def test_median_of_an_even_count_is_the_middle_pair_mean(judge, tmp_path,
                                                         capsys):
    key = ("cells", "E5 n=2048")
    base = {**BASE, key: [1.0, 2.0, 3.0, 4.0]}
    # 2.0 is exactly 80% of the base median 2.5
    head = {**BASE, key: [2.0, 2.0]}
    rc, out, _ = run(judge, tmp_path, base, head, capsys)
    assert rc == 0
    (line,) = [line for line in out.splitlines() if line.startswith("cells E5")]
    assert "base 2.500" in line and "ratio 0.800  ok" in line


def test_faster_head_passes(judge, tmp_path, capsys):
    assert run(judge, tmp_path, BASE, scaled("serve", 3.0), capsys)[0] == 0


def test_medians_not_means_decide(judge, tmp_path, capsys):
    # one head run far below the base cannot move the head's median
    key = ("cells", "E1 n=4096")
    head = {**BASE, key: [0.1, 1.6, 1.4, 1.55, 1.45]}
    assert run(judge, tmp_path, BASE, head, capsys)[0] == 0


@pytest.mark.parametrize("side", ["base", "head"])
def test_point_on_one_side_only_fails(judge, tmp_path, capsys, side):
    partial = {k: v for k, v in BASE.items() if k[0] != "serve"}
    base, head = (partial, BASE) if side == "base" else (BASE, partial)
    rc, out, err = run(judge, tmp_path, base, head, capsys)
    assert rc == 1
    assert "serve SERVE n=256  on one side only" in out
    assert "serve SERVE n=256" in err


@pytest.mark.parametrize("content", [
    "",
    "not json\n",
    '{"kind": "cells", "point": "E1 n=4096"}\n',
    '{"kind": "memory", "point": "E1 n=4096", "speedup": 1.5}\n',
    '{"kind": "cells", "point": "E1 n=4096", "speedup": 0}\n',
    '{"kind": "cells", "point": "E1 n=4096", "speedup": "fast"}\n',
    '{"kind": "cells", "point": "E1 n=4096", "speedup": -1.5}\n',
    # NaN compares false both ways: read as a speedup, it could never regress
    '{"kind": "cells", "point": "E1 n=4096", "speedup": NaN}\n',
    '{"kind": "cells", "point": "E1 n=4096", "speedup": null}\n',
    '{"point": "E1 n=4096", "speedup": 1.5}\n',
    '{"kind": "cells", "speedup": 1.5}\n',
    '[1.5]\n',
    # a run cut off mid-append loses the side, not just the line
    '{"kind": "cells", "point": "E1 n=4096", "speedup": 1.5}\n'
    '{"kind": "cells", "point": "E1 n=4',
], ids=["empty", "not-json", "no-speedup", "unknown-kind", "zero", "string",
        "negative", "nan", "null", "no-kind", "no-point", "not-an-object",
        "torn-tail"])
@pytest.mark.parametrize("side", [0, 1])
def test_empty_or_unreadable_side_fails(judge, tmp_path, capsys, content,
                                        side):
    good = write_side(tmp_path / "good.jsonl", BASE)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(content)
    argv = [good, str(bad)] if side else [str(bad), good]
    assert judge.main(argv) == 1
    assert "empty or unreadable" in capsys.readouterr().err


def test_missing_side_fails(judge, tmp_path, capsys):
    good = write_side(tmp_path / "good.jsonl", BASE)
    assert judge.main([good, str(tmp_path / "absent.jsonl")]) == 1


def test_wrong_argument_count_is_a_usage_error(judge, capsys):
    assert judge.main(["only-one.jsonl"]) == 2


@pytest.mark.parametrize("argv", [[], ["a.jsonl", "b.jsonl", "c.jsonl"]],
                         ids=["none", "three"])
def test_usage_error_prints_the_usage(judge, capsys, argv):
    assert judge.main(argv) == 2
    assert capsys.readouterr().err.strip() == (
        "usage: python3 tools/judge_speedups.py BASE.jsonl HEAD.jsonl")


def test_single_run_quartiles_are_the_run(judge):
    assert judge.quartiles([1.25]) == [1.25, 1.25, 1.25]
