"""Unit tests: CLI (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Tiny Groups" in out
        assert "chord" in out
        assert "E15" in out

    def test_validate_ok(self, capsys):
        assert main(["validate", "chord", "-n", "128", "--probes", "1000"]) == 0
        assert "P1" in capsys.readouterr().out

    def test_validate_unknown_topology(self):
        with pytest.raises(ValueError):
            main(["validate", "pancake", "-n", "128"])

    def test_simulate(self, capsys):
        assert main([
            "simulate", "-n", "128", "--epochs", "1", "--probes", "200",
        ]) == 0
        out = capsys.readouterr().out
        assert "epoch" in out

    def test_experiments_single(self, capsys):
        assert main(["experiments", "E10"]) == 0
        assert "[E10]" in capsys.readouterr().out

    def test_unknown_experiment_id_is_a_usage_error(self, capsys):
        # every ID is checked before any runs: E8's table must not print
        with pytest.raises(SystemExit) as exc:
            main(["experiments", "E8", "E99"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown experiment 'E99'" in captured.err
        assert "Traceback" not in captured.err

    def test_experiment_ids_are_case_insensitive(self):
        args = build_parser().parse_args(["experiments", "e10", "E1"])
        assert args.ids == ["E10", "E1"]

    def test_negative_seed_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "-1", "experiments", "E10"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seed: must be >= 0" in captured.err

    @pytest.mark.parametrize("bad", ["E0", "E16", "E1x", "X1", "1", "e"])
    def test_malformed_experiment_ids_are_usage_errors(self, bad, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiments", "E10", bad])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unknown experiment {bad!r}" in captured.err
        assert "Traceback" not in captured.err

    def test_every_registered_id_parses_in_either_case(self):
        from repro.experiments import EXPERIMENTS

        parser = build_parser()
        for exp_id in EXPERIMENTS:
            args = parser.parse_args(["experiments", exp_id.lower(), exp_id])
            assert args.ids == [exp_id, exp_id]

    @pytest.mark.parametrize("bad", ["-42", "1.5", "seven", ""])
    def test_malformed_seeds_are_usage_errors(self, bad, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--seed", bad, "experiments", "E10"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seed" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("seed", [0, 2**32, 2**64])
    def test_any_nonnegative_seed_parses(self, seed):
        args = build_parser().parse_args(["--seed", str(seed), "info"])
        assert args.seed == seed

    @pytest.mark.parametrize("bad", ["0", "-2"])
    def test_nonpositive_workers_are_usage_errors(self, bad, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiments", "E10", "--backend", "process",
                  "--workers", bad])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--workers: must be >= 1" in captured.err

    def test_experiments_cache_flags_parse(self):
        args = build_parser().parse_args(
            ["experiments", "E1", "--cache", "--force", "--cache-dir", "/tmp/x"]
        )
        assert args.cache and args.force and args.cache_dir == "/tmp/x"
        assert build_parser().parse_args(
            ["experiments", "E1", "--no-cache"]
        ).cache is False
        assert build_parser().parse_args(["experiments", "E1"]).cache is False

    def test_cache_dir_implies_cache(self, tmp_path, capsys):
        assert main(
            ["experiments", "E13", "--cache-dir", str(tmp_path)]
        ) == 0
        capsys.readouterr()
        assert list(tmp_path.glob("e13-*.json"))  # entry written without --cache

    def test_experiments_cached_run_hits(self, tmp_path, capsys):
        from repro.sim import cells_executed, reset_cells_executed

        argv = ["experiments", "E13", "--cache", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        reset_cells_executed()
        assert main(argv) == 0
        assert cells_executed() == 0  # warm: rendered from the cache
        assert capsys.readouterr().out == cold

    def test_backend_default_is_substrate_default(self):
        # no --backend: exec_config stays unset so the vectorized kernels
        # (the promoted default path) apply
        args = build_parser().parse_args(["experiments", "E1"])
        assert args.backend is None

    def test_explicit_serial_backend_parses(self):
        args = build_parser().parse_args(
            ["experiments", "E1", "--backend", "serial"]
        )
        assert args.backend == "serial"


class TestCacheCommand:
    def _fill(self, cache_dir, experiments=("E1", "E2")):
        from repro.analysis.tables import TableResult
        from repro.experiments.cache import ResultCache

        rc = ResultCache(cache_dir)
        for name in experiments:
            t = TableResult(experiment=name, title="t", headers=["a"])
            t.add_row("x")
            rc.store(name, 0, True, {}, t)
        return rc

    def test_ls_empty(self, tmp_path, capsys):
        assert main(["cache", "ls", "--cache-dir", str(tmp_path)]) == 0
        assert "empty" in capsys.readouterr().out

    def test_ls_lists_entries(self, tmp_path, capsys):
        self._fill(tmp_path)
        assert main(["cache", "ls", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out
        assert "E1" in out and "E2" in out

    def test_prune_requires_a_bound(self, tmp_path, capsys):
        self._fill(tmp_path)
        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 2
        assert "nothing to do" in capsys.readouterr().out

    def test_prune_max_bytes(self, tmp_path, capsys):
        rc = self._fill(tmp_path)
        assert main([
            "cache", "prune", "--cache-dir", str(tmp_path), "--max-bytes", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "pruned 2 entries" in out
        assert rc.entries() == []

    def test_prune_older_than_keeps_fresh_entries(self, tmp_path, capsys):
        rc = self._fill(tmp_path)
        assert main([
            "cache", "prune", "--cache-dir", str(tmp_path),
            "--older-than", "1",
        ]) == 0
        assert "pruned 0 entries" in capsys.readouterr().out
        assert len(rc.entries()) == 2

    def test_prune_keep_latest_per_experiment(self, tmp_path, capsys):
        import os

        rc = self._fill(tmp_path)
        # second generation for E1 (distinct seed -> distinct key), newest
        from repro.analysis.tables import TableResult

        t = TableResult(experiment="E1", title="t", headers=["a"])
        t.add_row("y")
        p = rc.store("E1", 1, True, {}, t)
        base = 1_700_000_000
        for i, e in enumerate(rc.entries()):
            os.utime(e.path, (base + i, base + i))
        os.utime(p, (base + 100, base + 100))
        assert main([
            "cache", "prune", "--cache-dir", str(tmp_path),
            "--keep-latest-per-experiment",
        ]) == 0
        assert "pruned 1 entries" in capsys.readouterr().out
        kept = rc.entries()
        assert len(kept) == 2  # newest E1 + the lone E2
        assert {e.experiment for e in kept} == {"E1", "E2"}
        assert p in [e.path for e in kept]

    def test_prune_flag_alone_counts_as_a_bound(self, tmp_path, capsys):
        self._fill(tmp_path)
        # with only one entry per experiment the policy removes nothing,
        # but it is a valid pruning request (exit 0, not the usage error)
        assert main([
            "cache", "prune", "--cache-dir", str(tmp_path),
            "--keep-latest-per-experiment",
        ]) == 0
        assert "pruned 0 entries" in capsys.readouterr().out


class TestDispatchCommand:
    """`repro dispatch serve/work/collect` — in-process round trips (the
    separate-OS-process scenario lives in
    tests/integration/test_dispatch_cli.py)."""

    OVERRIDES = ["--set", "n_values=[128]", "--set", "probes=300",
                 "--set", 'topologies=["chord"]']

    def test_serve_work_collect_round_trip(self, tmp_path, capsys):
        spool = str(tmp_path / "spool")
        assert main(["--seed", "2", "dispatch", "serve", "E1",
                     *self.OVERRIDES, "--spool", spool]) == 0
        assert "1 of 1 units enqueued" in capsys.readouterr().out
        assert main(["dispatch", "work", "--spool", spool]) == 0
        assert "executed 1 unit" in capsys.readouterr().out
        assert main(["dispatch", "collect", "--spool", spool]) == 0
        out = capsys.readouterr().out
        from repro.experiments.runner import run_experiment

        oracle = run_experiment(
            "E1", seed=2, fast=True, n_values=[128], probes=300,
            topologies=["chord"],
        )
        assert out.strip() == oracle.render().strip()

    def test_collect_incomplete_is_exit_1(self, tmp_path, capsys):
        spool = str(tmp_path / "spool")
        assert main(["dispatch", "serve", "E1", *self.OVERRIDES,
                     "--spool", spool]) == 0
        capsys.readouterr()
        assert main(["dispatch", "collect", "--spool", spool]) == 1
        captured = capsys.readouterr()
        assert "incomplete" in captured.err
        assert captured.out.strip() == ""  # no partial table on stdout

    def test_bad_set_syntax_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["dispatch", "serve", "E1", "--set", "probes",
                  "--spool", str(tmp_path / "s")])

    def test_nonpositive_lease_timeout_is_a_usage_error(self, tmp_path):
        spool = tmp_path / "s"
        with pytest.raises(SystemExit):
            main(["dispatch", "serve", "E1", "--lease-timeout", "-5",
                  "--spool", str(spool)])
        assert not spool.exists()

    def test_set_values_parse_as_json_with_string_fallback(self, tmp_path, capsys):
        spool = str(tmp_path / "spool")
        # topologies as a bare string would TypeError inside build_spec's
        # tuple(); as JSON it is a list — and an unknown key must fail
        # loudly at serve time with the experiment named
        with pytest.raises(TypeError, match="E1"):
            main(["dispatch", "serve", "E1", "--set", "probez=5",
                  "--spool", spool])

    def test_serve_cache_hit_enqueues_nothing(self, tmp_path, capsys):
        spool = str(tmp_path / "spool")
        cache_dir = str(tmp_path / "cache")
        assert main(["dispatch", "serve", "E1", *self.OVERRIDES,
                     "--spool", spool, "--cache-dir", cache_dir]) == 0
        assert main(["dispatch", "work", "--spool", spool]) == 0
        assert main(["dispatch", "collect", "--spool", spool,
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        spool2 = str(tmp_path / "spool2")
        assert main(["dispatch", "serve", "E1", *self.OVERRIDES,
                     "--spool", spool2, "--cache-dir", cache_dir]) == 0
        assert "cache hit" in capsys.readouterr().out
        assert main(["dispatch", "collect", "--spool", spool2]) == 0

    def test_work_self_heals_a_corrupt_completion(self, tmp_path, capsys):
        # regression: a Byzantine completion must not let the worker pool
        # exit "done" on an unverifiable spool — the same worker sweeps
        # the invalid result, requeues the unit, and re-executes honestly
        spool = str(tmp_path / "spool")
        assert main(["dispatch", "serve", "E1", *self.OVERRIDES,
                     "--spool", spool]) == 0
        assert main(["dispatch", "work", "--spool", spool,
                     "--chaos", "corrupt:1"]) == 0
        capsys.readouterr()
        # no further work needed: collect verifies and assembles directly
        assert main(["dispatch", "collect", "--spool", spool]) == 0
        assert "[E1]" in capsys.readouterr().out

    def test_recollect_publishes_staged_table_to_cache(self, tmp_path, capsys):
        # regression: collect --cache on a spool whose table was already
        # staged by a cache-less collect must still store the entry
        spool = str(tmp_path / "spool")
        cache_dir = tmp_path / "cache"
        assert main(["dispatch", "serve", "E1", *self.OVERRIDES,
                     "--spool", spool]) == 0
        assert main(["dispatch", "work", "--spool", spool]) == 0
        assert main(["dispatch", "collect", "--spool", spool]) == 0  # stages
        assert main(["dispatch", "collect", "--spool", spool,
                     "--cache-dir", str(cache_dir)]) == 0
        from repro.experiments.cache import ResultCache

        assert [e.experiment for e in ResultCache(cache_dir).entries()] == ["E1"]

    def test_work_on_cache_hit_spool_exits_immediately(self, tmp_path, capsys):
        # regression: a spool completed by a serve-time cache hit holds
        # zero units; a worker pointed at it must exit 0, not poll forever
        spool = str(tmp_path / "spool")
        cache_dir = str(tmp_path / "cache")
        assert main(["dispatch", "serve", "E1", *self.OVERRIDES,
                     "--spool", spool, "--cache-dir", cache_dir]) == 0
        assert main(["dispatch", "work", "--spool", spool]) == 0
        assert main(["dispatch", "collect", "--spool", spool,
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        spool2 = str(tmp_path / "spool2")
        assert main(["dispatch", "serve", "E1", *self.OVERRIDES,
                     "--spool", spool2, "--cache-dir", cache_dir]) == 0
        assert "cache hit" in capsys.readouterr().out
        assert main(["dispatch", "work", "--spool", spool2]) == 0
        assert "executed 0 unit" in capsys.readouterr().out
