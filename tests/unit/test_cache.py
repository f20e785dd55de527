"""Unit tests: on-disk result cache (repro.experiments.cache).

The cache key is ``(experiment, seed, fast, overrides, version)`` — the
execution backend is deliberately excluded (tables are bit-identical at
any worker count), and any component change must produce a different key.
Corrupt entries are misses, never crashes.
"""

import numpy as np
import pytest

from repro import __version__
from repro.analysis.tables import TableResult
from repro.experiments.cache import ResultCache, cache_key, default_cache_dir


def _table() -> TableResult:
    t = TableResult(experiment="E1", title="t", headers=["a", "b"])
    t.add_row(1, "x")
    t.add_row(2.5, "y")
    t.add_note("n1")
    return t


class TestCacheKey:
    def test_stable(self):
        assert cache_key("E1", 0, True, {}) == cache_key("E1", 0, True, {})

    def test_case_insensitive_experiment(self):
        assert cache_key("e1", 0, True, {}) == cache_key("E1", 0, True, {})

    def test_components_change_key(self):
        base = cache_key("E1", 0, True, {})
        assert cache_key("E2", 0, True, {}) != base
        assert cache_key("E1", 1, True, {}) != base
        assert cache_key("E1", 0, False, {}) != base
        assert cache_key("E1", 0, True, {"probes": 100}) != base

    def test_version_in_key(self):
        assert cache_key("E1", 0, True, {}, version=__version__) != cache_key(
            "E1", 0, True, {}, version="0.0.0-other"
        )

    def test_override_order_irrelevant(self):
        a = cache_key("E1", 0, True, {"x": 1, "y": 2})
        b = cache_key("E1", 0, True, {"y": 2, "x": 1})
        assert a == b

    def test_tuple_and_list_overrides_equal(self):
        # the CLI cannot distinguish them; neither should the key
        assert cache_key("E1", 0, True, {"ns": (1, 2)}) == cache_key(
            "E1", 0, True, {"ns": [1, 2]}
        )

    def test_numpy_scalar_overrides(self):
        assert cache_key("E1", 0, True, {"n": np.int64(128)}) == cache_key(
            "E1", 0, True, {"n": 128}
        )


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        rc = ResultCache(tmp_path)
        assert rc.load("E1", 0, True, {}) is None
        rc.store("E1", 0, True, {}, _table())
        hit = rc.load("E1", 0, True, {})
        assert hit is not None
        assert hit.render() == _table().render()
        assert hit.rows == _table().rows

    def test_distinct_overrides_distinct_entries(self, tmp_path):
        rc = ResultCache(tmp_path)
        rc.store("E1", 0, True, {}, _table())
        assert rc.load("E1", 0, True, {"probes": 9}) is None

    def test_corrupt_entry_is_miss(self, tmp_path):
        rc = ResultCache(tmp_path)
        path = rc.store("E1", 0, True, {}, _table())
        path.write_text("{not json")
        assert rc.load("E1", 0, True, {}) is None

    def test_store_creates_directories(self, tmp_path):
        rc = ResultCache(tmp_path / "deep" / "cache")
        path = rc.store("E1", 0, True, {}, _table())
        assert path.exists()

    def test_unwritable_root_degrades_to_noop(self, tmp_path):
        # a file where the cache root should be: mkdir fails with OSError
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        rc = ResultCache(blocker / "cache")
        with pytest.warns(RuntimeWarning, match="not writable"):
            assert rc.store("E1", 0, True, {}, _table()) is None
        assert rc.load("E1", 0, True, {}) is None  # still just a miss

    def test_concurrent_writers_use_distinct_tmp_names(self, tmp_path):
        rc = ResultCache(tmp_path)
        path = rc.store("E1", 0, True, {}, _table())
        # no stale tmp files left behind after a successful store
        assert list(tmp_path.glob("*.tmp")) == []
        assert path is not None and path.suffix == ".json"

    def test_env_override_of_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert default_cache_dir() == tmp_path / "env-cache"

    def test_default_dir_under_benchmarks(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        path = default_cache_dir()
        assert path.parts[-3:] == ("benchmarks", "output", "cache")


class TestCrashSafety:
    """A writer killed mid-``put`` must never leave a JSON entry that a
    later run loads as a hit: the store writes to a per-writer temp file
    and publishes with one atomic rename, so the entry either exists
    complete or not at all."""

    def test_writer_killed_mid_write_leaves_no_loadable_entry(
        self, tmp_path, monkeypatch
    ):
        import pathlib

        rc = ResultCache(tmp_path)
        real_write = pathlib.Path.write_text

        def torn_write(self, text, *args, **kwargs):
            if self.name.endswith(".tmp"):
                # half the bytes land, then the kill: no exception handling,
                # no cleanup — exactly what SIGKILL leaves behind
                real_write(self, text[: len(text) // 2])
                raise KeyboardInterrupt("killed mid-put")
            return real_write(self, text, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "write_text", torn_write)
        with pytest.raises(KeyboardInterrupt):
            rc.store("E1", 0, True, {}, _table())
        monkeypatch.undo()
        # the torn temp file is on disk, but it is not an entry: not a
        # hit, not listed, and a fresh store publishes cleanly over it
        assert list(tmp_path.glob("*.tmp")) != []
        assert rc.load("E1", 0, True, {}) is None
        assert rc.entries() == []
        rc.store("E1", 0, True, {}, _table())
        assert rc.load("E1", 0, True, {}) is not None

    def test_writer_killed_before_rename_leaves_no_entry(
        self, tmp_path, monkeypatch
    ):
        import pathlib

        rc = ResultCache(tmp_path)

        def killed_replace(self, target):
            raise KeyboardInterrupt("killed between write and rename")

        monkeypatch.setattr(pathlib.Path, "replace", killed_replace)
        with pytest.raises(KeyboardInterrupt):
            rc.store("E1", 0, True, {}, _table())
        monkeypatch.undo()
        # the payload was fully written — but only to the temp name, so
        # the cache still has no entry for the key
        assert rc.load("E1", 0, True, {}) is None
        assert rc.entries() == []

    def test_truncated_entry_on_disk_is_a_miss(self, tmp_path):
        rc = ResultCache(tmp_path)
        path = rc.store("E1", 0, True, {}, _table())
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # torn at the final name
        assert rc.load("E1", 0, True, {}) is None

    def test_concurrent_same_key_writers_never_publish_partial(self, tmp_path):
        # two writers racing on one key use per-pid temp names; whichever
        # rename lands last wins with a *complete* file either way
        rc_a, rc_b = ResultCache(tmp_path), ResultCache(tmp_path)
        pa = rc_a.store("E1", 0, True, {}, _table())
        pb = rc_b.store("E1", 0, True, {}, _table())
        assert pa == pb
        assert rc_a.load("E1", 0, True, {}).render() == _table().render()
        assert list(tmp_path.glob("*.tmp")) == []


class TestEntriesAndPrune:
    """`repro cache ls` / `prune` machinery (the store must not only grow)."""

    def _seed_store(self, tmp_path, count=4):
        import os

        rc = ResultCache(tmp_path)
        paths = []
        for i in range(count):
            p = rc.store(f"E{i + 1}", 0, True, {}, _table())
            # deterministic, well-separated ages: E1 oldest ... E4 newest
            age_days = count - i
            mtime = 1_700_000_000 + (count - age_days) * 86400
            os.utime(p, (mtime, mtime))
            paths.append(p)
        return rc, paths

    def test_entries_oldest_first_with_metadata(self, tmp_path):
        rc, paths = self._seed_store(tmp_path)
        entries = rc.entries()
        assert [e.experiment for e in entries] == ["E1", "E2", "E3", "E4"]
        assert all(e.size > 0 for e in entries)
        assert [e.path for e in entries] == paths

    def test_entries_empty_and_missing_root(self, tmp_path):
        assert ResultCache(tmp_path / "nope").entries() == []
        assert ResultCache(tmp_path).entries() == []

    def test_entries_ignore_tmp_and_foreign_files(self, tmp_path):
        rc = ResultCache(tmp_path)
        rc.store("E1", 0, True, {}, _table())
        (tmp_path / "e9-deadbeef.1234.tmp").write_text("partial")
        (tmp_path / "README").write_text("not an entry")
        # dashed .json files that are not <exp>-<20-hex-key>.json are foreign
        (tmp_path / "my-notes.json").write_text("{}")
        (tmp_path / "e2-SHOUTYKEY0123456789a.json").write_text("{}")
        (tmp_path / "e2-abc.json").write_text("{}")  # key too short
        assert [e.experiment for e in rc.entries()] == ["E1"]

    def test_prune_never_deletes_foreign_files(self, tmp_path):
        rc = ResultCache(tmp_path)
        rc.store("E1", 0, True, {}, _table())
        foreign = tmp_path / "my-notes.json"
        foreign.write_text("{\"precious\": true}")
        removed = rc.prune(max_bytes=0)
        assert [e.experiment for e in removed] == ["E1"]
        assert foreign.exists()

    def test_prune_noop_without_bounds(self, tmp_path):
        rc, _ = self._seed_store(tmp_path)
        assert rc.prune() == []
        assert len(rc.entries()) == 4

    def test_prune_older_than(self, tmp_path):
        rc, _ = self._seed_store(tmp_path)
        now = 1_700_000_000 + 4 * 86400
        removed = rc.prune(older_than=2.5 * 86400, now=now)
        assert sorted(e.experiment for e in removed) == ["E1", "E2"]
        assert [e.experiment for e in rc.entries()] == ["E3", "E4"]

    def test_prune_max_bytes_evicts_oldest_first(self, tmp_path):
        rc, _ = self._seed_store(tmp_path)
        entries = rc.entries()
        keep_two = entries[-1].size + entries[-2].size
        removed = rc.prune(max_bytes=keep_two)
        assert sorted(e.experiment for e in removed) == ["E1", "E2"]
        assert [e.experiment for e in rc.entries()] == ["E3", "E4"]

    def test_prune_max_bytes_zero_clears_store(self, tmp_path):
        rc, _ = self._seed_store(tmp_path)
        removed = rc.prune(max_bytes=0)
        assert len(removed) == 4
        assert rc.entries() == []

    def test_prune_combined_bounds(self, tmp_path):
        rc, _ = self._seed_store(tmp_path)
        now = 1_700_000_000 + 4 * 86400
        sizes = {e.experiment: e.size for e in rc.entries()}
        removed = rc.prune(
            older_than=3.5 * 86400,            # drops E1
            max_bytes=sizes["E4"],             # then evicts E2, E3
            now=now,
        )
        assert sorted(e.experiment for e in removed) == ["E1", "E2", "E3"]
        assert [e.experiment for e in rc.entries()] == ["E4"]

    def test_pruned_entry_is_a_miss_not_an_error(self, tmp_path):
        rc = ResultCache(tmp_path)
        rc.store("E1", 0, True, {}, _table())
        rc.prune(max_bytes=0)
        assert rc.load("E1", 0, True, {}) is None


class TestVersionBump:
    """Version-keyed invalidation: a stale-version entry is ignored, never
    served (a change to a cell's RNG stream bumps __version__ — old tables
    must become misses, not wrong answers)."""

    def test_store_then_version_bump_is_miss(self, tmp_path, monkeypatch):
        import repro

        rc = ResultCache(tmp_path)
        rc.store("E8", 0, True, {}, _table())
        assert rc.load("E8", 0, True, {}) is not None
        # simulate the next release: same store, new package version
        monkeypatch.setattr(repro, "__version__", "999.0.0-test")
        assert rc.load("E8", 0, True, {}) is None
        # the stale entry is still on disk (prune policy's job, not load's)
        assert len(rc.entries()) == 1

    def test_store_under_new_version_keeps_both_entries(self, tmp_path, monkeypatch):
        import repro

        rc = ResultCache(tmp_path)
        rc.store("E12", 0, True, {}, _table())
        monkeypatch.setattr(repro, "__version__", "999.0.0-test")
        rc.store("E12", 0, True, {}, _table())
        assert rc.load("E12", 0, True, {}) is not None
        assert len(rc.entries()) == 2  # one per version generation

    def test_version_explicitly_in_key(self):
        assert cache_key("E4", 0, True, {}, version="a") != cache_key(
            "E4", 0, True, {}, version="b"
        )


class TestKeepLatestPerExperiment:
    """`prune --keep-latest-per-experiment`: the post-version-bump janitor
    preserves each experiment's newest entry across every bound."""

    def _seed_versions(self, tmp_path):
        """Two generations for E1/E2 plus one lone E3 entry, with strictly
        increasing mtimes: E1-old < E2-old < E1-new < E2-new < E3."""
        import os

        rc = ResultCache(tmp_path)
        base = 1_700_000_000
        paths = {}
        for i, (exp, seed) in enumerate(
            [("E1", 0), ("E2", 0), ("E1", 1), ("E2", 1), ("E3", 0)]
        ):
            p = rc.store(exp, seed, True, {}, _table())
            os.utime(p, (base + i * 3600, base + i * 3600))
            paths[(exp, seed)] = p
        return rc, paths, base + 4 * 3600

    def test_latest_per_experiment_mapping(self, tmp_path):
        rc, paths, _ = self._seed_versions(tmp_path)
        latest = rc.latest_per_experiment()
        assert latest["E1"].path == paths[("E1", 1)]
        assert latest["E2"].path == paths[("E2", 1)]
        assert latest["E3"].path == paths[("E3", 0)]

    def test_policy_alone_keeps_one_entry_per_experiment(self, tmp_path):
        rc, paths, _ = self._seed_versions(tmp_path)
        removed = rc.prune(keep_latest_per_experiment=True)
        # eviction order matches entries() (oldest first)
        assert [e.path for e in removed] == [paths[("E1", 0)], paths[("E2", 0)]]
        assert sorted(e.path for e in rc.entries()) == sorted(
            [paths[("E1", 1)], paths[("E2", 1)], paths[("E3", 0)]]
        )

    def test_policy_protects_newest_from_age_bound(self, tmp_path):
        rc, paths, now = self._seed_versions(tmp_path)
        # an age bound that would otherwise clear the whole store
        removed = rc.prune(
            older_than=0.0, now=now + 10, keep_latest_per_experiment=True
        )
        assert len(removed) == 2
        kept = {e.path for e in rc.entries()}
        assert kept == {paths[("E1", 1)], paths[("E2", 1)], paths[("E3", 0)]}

    def test_policy_protects_newest_from_size_bound(self, tmp_path):
        rc, paths, _ = self._seed_versions(tmp_path)
        removed = rc.prune(max_bytes=0, keep_latest_per_experiment=True)
        # only the two stale generations go; the three newest survive even
        # though the size budget is zero
        assert [e.path for e in removed] == [paths[("E1", 0)], paths[("E2", 0)]]
        assert len(rc.entries()) == 3

    def test_no_policy_no_bounds_still_noop(self, tmp_path):
        rc, _, _ = self._seed_versions(tmp_path)
        assert rc.prune() == []
        assert len(rc.entries()) == 5
