"""On-disk result cache for experiment tables.

Re-running an experiment recomputes its table even when nothing
changed; this module gives every experiment run an addressable identity —
``(experiment, seed, fast, overrides, repro version)`` — and stores the
finished :class:`~repro.analysis.tables.TableResult` as JSON under that
key (default root: ``benchmarks/output/cache/``), so a warm run loads the
table instead of re-executing a single sweep cell.

The key deliberately excludes the execution backend: the sweep substrate
guarantees bit-identical tables at any worker count, so a table computed
by a 4-worker pool is a valid hit for a serial run and vice versa.  The
package version is part of the key, so caches self-invalidate on release
bumps; corrupt or unreadable entries are treated as misses, never errors.

The store only ever grows on its own; :meth:`ResultCache.entries` and
:meth:`ResultCache.prune` (surfaced as ``repro cache ls`` / ``repro cache
prune``) give operators inspection and age/size-bounded eviction.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import re
import time
import warnings
from dataclasses import dataclass

from ..analysis.tables import TableResult

__all__ = ["CacheEntry", "ResultCache", "cache_key", "default_cache_dir"]

# three levels above src/repro/experiments/ is the repo root — but only
# for the source checkout this project is actually run from; under an
# installed package that path lands inside the interpreter's lib tree
_REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` if set, else ``benchmarks/output/cache/``.

    The benchmarks directory anchors the repo-root heuristic: when it is
    absent (installed package rather than a checkout), fall back to the
    working directory instead of silently writing into site-packages.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    root = _REPO_ROOT if (_REPO_ROOT / "benchmarks").is_dir() else pathlib.Path.cwd()
    return root / "benchmarks" / "output" / "cache"


def _canonical(value: object) -> object:
    """Reduce an override value to a canonical JSON-stable form.

    Tuples and lists collapse to lists (the CLI cannot distinguish them),
    dict keys become sorted strings, NumPy scalars their Python values;
    anything else keys by ``repr``.
    """
    if isinstance(value, (tuple, list)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(value[k]) for k in sorted(value, key=str)}
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return repr(value)


def cache_key(
    experiment: str,
    seed: int,
    fast: bool,
    overrides: dict,
    version: str | None = None,
) -> str:
    """Content address for one experiment run."""
    if version is None:
        from .. import __version__ as version
    payload = json.dumps(
        {
            "experiment": experiment.upper(),
            "seed": int(seed),
            "fast": bool(fast),
            "overrides": _canonical(dict(overrides)),
            "version": version,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


@dataclass(frozen=True)
class CacheEntry:
    """Metadata for one stored table (the ``cache ls`` row)."""

    path: pathlib.Path
    experiment: str
    key: str
    size: int          # bytes on disk
    mtime: float       # seconds since the epoch

    def age_seconds(self, now: float | None = None) -> float:
        return (time.time() if now is None else now) - self.mtime


class ResultCache:
    """JSON table store keyed by :func:`cache_key`."""

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = pathlib.Path(root) if root is not None else default_cache_dir()

    def path_for(
        self, experiment: str, seed: int, fast: bool, overrides: dict
    ) -> pathlib.Path:
        key = cache_key(experiment, seed, fast, overrides)
        return self.root / f"{experiment.lower()}-{key}.json"

    def load(
        self, experiment: str, seed: int, fast: bool, overrides: dict
    ) -> TableResult | None:
        """The cached table, or None on a miss or an unreadable entry."""
        path = self.path_for(experiment, seed, fast, overrides)
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            return TableResult.from_json(text)
        except (ValueError, KeyError, TypeError):
            return None  # corrupt entry: recompute rather than crash

    def store(
        self,
        experiment: str,
        seed: int,
        fast: bool,
        overrides: dict,
        table: TableResult,
    ) -> pathlib.Path | None:
        """Write the table; returns its path, or None if the root is
        unwritable (caching degrades to a no-op with a warning — a
        read-only install must not crash a successful run)."""
        path = self.path_for(experiment, seed, fast, overrides)
        # per-writer tmp name: concurrent same-key runners each rename their
        # own complete file, so readers never see a partial table and no
        # writer loses its tmp to another's rename
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(table.to_json())
            tmp.replace(path)
        except OSError as exc:
            warnings.warn(
                f"result cache at {self.root} is not writable ({exc}); "
                "skipping the store",
                RuntimeWarning,
                stacklevel=2,
            )
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return None
        return path

    # -- inspection / eviction --------------------------------------------------

    # exactly what path_for() writes: lowercase experiment id, dash, the
    # 20-hex-char truncated sha256 — anything else in the directory is NOT
    # ours and must never be listed or pruned
    _ENTRY_RE = re.compile(r"^(?P<experiment>[a-z0-9_]+)-(?P<key>[0-9a-f]{20})$")

    def entries(self) -> list[CacheEntry]:
        """All stored tables, oldest first (the eviction order).

        Only names matching the writer's own ``<experiment>-<20-hex-key>
        .json`` shape are entries; writer ``.tmp`` files and foreign files
        that merely look JSON-ish are ignored.  Entries that vanish between
        the glob and the stat (a concurrent prune) are skipped, not errors.
        """
        out: list[CacheEntry] = []
        if not self.root.is_dir():
            return out
        for path in self.root.glob("*-*.json"):
            m = self._ENTRY_RE.match(path.stem)
            if m is None:
                continue
            experiment, key = m.group("experiment"), m.group("key")
            try:
                st = path.stat()
            except OSError:
                continue
            out.append(
                CacheEntry(
                    path=path,
                    experiment=experiment.upper(),
                    key=key,
                    size=int(st.st_size),
                    mtime=float(st.st_mtime),
                )
            )
        out.sort(key=lambda e: (e.mtime, e.path.name))
        return out

    def latest_per_experiment(self) -> dict[str, CacheEntry]:
        """The newest stored entry for each experiment (by mtime)."""
        latest: dict[str, CacheEntry] = {}
        for e in self.entries():  # oldest first: later entries overwrite
            latest[e.experiment] = e
        return latest

    def prune(
        self,
        older_than: float | None = None,
        max_bytes: int | None = None,
        now: float | None = None,
        keep_latest_per_experiment: bool = False,
    ) -> list[CacheEntry]:
        """Evict entries by age and/or total size; returns what was removed.

        ``older_than`` (seconds) drops every entry whose mtime is further
        in the past; ``max_bytes`` then evicts oldest-first until the
        store's total size fits the budget.  With no bound and no policy
        this is a no-op — pruning is always an explicit decision.  Entries
        already deleted by a concurrent pruner are counted as removed (the
        goal state holds either way).

        ``keep_latest_per_experiment`` is the version-bump janitor policy:
        the newest entry of each experiment is exempt from every bound, so
        one warm table per experiment survives (stale-version entries are
        never *served* — the key includes the package version — but this
        keeps the store from accumulating one generation per release).  On
        its own, the flag evicts everything *except* those newest entries,
        still oldest-first.
        """
        if older_than is None and max_bytes is None and not keep_latest_per_experiment:
            return []
        now = time.time() if now is None else now
        entries = self.entries()
        protected: set[pathlib.Path] = set()
        if keep_latest_per_experiment:
            protected = {e.path for e in self.latest_per_experiment().values()}
        only_policy = older_than is None and max_bytes is None
        removed: list[CacheEntry] = []
        survivors: list[CacheEntry] = []
        for e in entries:
            if e.path in protected:
                survivors.append(e)
            elif only_policy or (
                older_than is not None and e.age_seconds(now) > older_than
            ):
                removed.append(e)
            else:
                survivors.append(e)
        if max_bytes is not None:
            total = sum(e.size for e in survivors)
            # survivors are oldest first: evict from the front, skipping
            # the protected newest-per-experiment entries
            i = 0
            while total > max_bytes and i < len(survivors):
                if survivors[i].path not in protected:
                    removed.append(survivors[i])
                    total -= survivors[i].size
                i += 1
        for e in removed:
            try:
                e.path.unlink(missing_ok=True)
            except OSError as exc:
                warnings.warn(
                    f"could not remove cache entry {e.path} ({exc})",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return removed
