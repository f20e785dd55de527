"""The dispatcher's broker: the lease protocol as directory state.

Workers *pull*: a worker claims a unit, executes it, and completes it.
The broker never trusts a worker to finish — every lease carries a
deadline, and a unit whose lease expires (worker killed mid-unit,
stalled past the deadline) is requeued for any other worker to claim.
Everything is therefore at-least-once; correctness comes from the
:class:`~repro.sim.dispatch.reassemble.Reassembler`'s first-write-wins
idempotency, not from exactly-once delivery.

The spool lets the three dispatcher roles — serve (enqueue), work
(execute), collect (reassemble) — run in **separate OS processes or
separate invocations** with no coordinator process: the broker state *is*
the directory, and every transition is a single atomic filesystem
operation on one filesystem::

    <spool>/
      manifest.json            sweep identity: experiment/seed/fast/
                               overrides/fingerprint/n_cells/
                               lease_timeout/replicas/max_attempts
      units/unit-00042.json    immutable originals (requeue source)
      pending/unit-00042.r1.a2.json   claimable replica slots
      leased/unit-00042.r1.a2.json    claimed slots; lease start = mtime
      results/result-00042.r1.json    completions (first write wins/slot)
      poison/unit-00042.a3.json       slots whose retry budget ran out
      table.json               the assembled table (collect, or a serve-
                               time cache hit)
      events.log               append-only telemetry trail (jsonl)

Slot filenames are ``unit-NNNNN[.rK][.aN].json``: ``rK`` names the
quorum replica slot (K >= 1; replica 0 keeps the bare legacy name, so an
r=1 spool is byte-for-byte the pre-quorum layout and old spools stay
collectable), ``aN`` counts the slot's *retries* (absent = first lease).
Result files mirror the replica suffix.  Every transition is still one
atomic fs op:

* **claim** is ``rename(pending/u, leased/u)`` — atomic, so two workers
  racing for one slot cannot both win (the loser's rename raises and it
  moves on);
* **lease expiry** is ``now > lease_start + lease_timeout`` and requeue
  is a rename back to ``pending/`` with the retry counter bumped in the
  *name* — any role may perform it, so a worker killed mid-unit needs no
  supervisor, just the next participant.  The lease start is normally
  the claim-time ``utime`` stamp; when ``utime`` fails (exotic
  filesystems, permission edges) the claim records ``lease_start``
  inside the slot JSON and expiry math prefers it, so a virtual-clock
  broker never mistakes a wall-clock mtime for its own time base;
* **completion** is write-to-temp + ``os.link`` to the final result name
  — atomic first-write-wins per slot, so duplicate completions (a
  stalled worker finishing after its slot was re-executed) cannot
  clobber the recorded result, and readers never observe a partial file;
* **requeue after rejection** (stale/corrupt result found at collect)
  re-materializes the slot from its immutable ``units/`` original —
  carrying the retry count forward, and moving the slot to ``poison/``
  (with a ``dispatch.poison`` event) once the manifest's
  ``max_attempts`` is spent, so a poisoned unit can never livelock the
  worker pool;
* **tiebreakers** (quorum mode): a tally that drains its slots without a
  majority gets a fresh ``rK`` slot staged from the original, K above
  every replica seen so far.

Observability: every lifecycle transition lands in ``events.log`` as one
typed :mod:`repro.telemetry` record (``dispatch.serve`` / ``.lease`` /
``.complete`` with the measured lease latency / ``.requeue`` /
``.reject`` / ``.poison`` / ``.corrupt_unit``, plus the reassembler's
``.quorum`` / ``.suspect`` votes), appended under the writer's
single-``write`` ``O_APPEND`` discipline so concurrent workers can never
interleave partial lines.

Default spool root: ``benchmarks/output/dispatch/``.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from dataclasses import replace
from typing import Callable, Mapping

from ...telemetry import TelemetryWriter
from .reassemble import (
    ACCEPTED,
    CORRUPT,
    DUPLICATE,
    OUTVOTED,
    STALE,
    VOTE,
    Reassembler,
)
from .wire import DispatchError, WorkResult, WorkUnit

__all__ = ["SpoolBroker", "default_spool_root"]


def default_spool_root() -> pathlib.Path:
    """``$REPRO_SPOOL_DIR`` if set, else ``benchmarks/output/dispatch/``
    (cache-dir heuristic: repo checkout first, cwd fallback)."""
    env = os.environ.get("REPRO_SPOOL_DIR")
    if env:
        return pathlib.Path(env)
    from ...experiments.cache import default_cache_dir

    return default_cache_dir().parent / "dispatch"


def _atomic_write(path: pathlib.Path, text: str) -> None:
    """Write-to-temp + atomic rename: no reader ever sees a partial file."""
    tmp = path.with_suffix(f"{path.suffix}.{os.getpid()}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


class SpoolBroker:
    """The broker protocol over a spool directory (one sweep per spool)."""

    def __init__(
        self,
        root: str | os.PathLike,
        clock: Callable[[], float] | None = None,
    ):
        self.root = pathlib.Path(root)
        self.clock = time.time if clock is None else clock
        # the spool's typed observability trail; shares the broker's clock
        # so virtual-clock tests and lease latencies line up with mtimes
        self.telemetry = TelemetryWriter(self.root / "events.log", clock=self.clock)
        # indexes this broker instance completed — the prefer-distinct
        # leasing hint (quorum tallies need votes from *different* workers,
        # and one broker instance normally serves one worker)
        self._completed: set[int] = set()

    # -- directory helpers -------------------------------------------------

    @property
    def manifest_path(self) -> pathlib.Path:
        return self.root / "manifest.json"

    @property
    def table_path(self) -> pathlib.Path:
        return self.root / "table.json"

    def _dir(self, name: str) -> pathlib.Path:
        return self.root / name

    def _unit_name(self, index: int) -> str:
        return f"unit-{index:05d}.json"

    @staticmethod
    def _slot_name(index: int, replica: int = 0, attempt: int = 0) -> str:
        """``unit-NNNNN[.rK][.aN].json`` — replica 0 / first lease keep
        the bare legacy name, so r=1 spools stay pre-quorum-compatible."""
        name = f"unit-{index:05d}"
        if replica:
            name += f".r{replica}"
        if attempt:
            name += f".a{attempt}"
        return name + ".json"

    @staticmethod
    def _parse_slot(name: str) -> tuple[int, int, int]:
        """Decode ``unit-NNNNN[.rK][.aN].json`` -> (index, replica, attempt)."""
        parts = name[: -len(".json")].split(".")
        index = int(parts[0].split("-")[1])
        replica = attempt = 0
        for part in parts[1:]:
            if part[:1] == "r":
                replica = int(part[1:])
            elif part[:1] == "a":
                attempt = int(part[1:])
        return index, replica, attempt

    def _result_path(self, index: int, replica: int = 0) -> pathlib.Path:
        suffix = f".r{replica}" if replica else ""
        return self._dir("results") / f"result-{index:05d}{suffix}.json"

    @staticmethod
    def _parse_result(name: str) -> tuple[int, int]:
        parts = name[: -len(".json")].split(".")
        index = int(parts[0].split("-")[1])
        replica = int(parts[1][1:]) if len(parts) > 1 else 0
        return index, replica

    def emit(self, type: str, **fields) -> None:
        """Record one typed lifecycle event in the spool's trail."""
        self.telemetry.emit(type, **fields)

    # -- serve side --------------------------------------------------------

    def initialize(
        self,
        manifest: Mapping,
        units: list[WorkUnit],
        force: bool = False,
    ) -> int:
        """Materialize the spool; returns how many slots were (re)enqueued.

        The manifest's ``replicas`` (default 1) fans every unit out into
        that many replica slots.  Idempotent for the same sweep
        fingerprint: slots that are already pending, leased, or completed
        are not enqueued again, so a re-serve over a half-finished spool
        only fills the gaps (completed shards are, in effect, spool-level
        cache hits).  A *different* fingerprint in an existing spool is an
        error unless ``force``, which wipes the previous generation's
        state first.
        """
        existing = self.load_manifest(missing_ok=True)
        if existing is not None:
            same = existing.get("fingerprint") == manifest.get("fingerprint")
            if not same and not force:
                raise DispatchError(
                    f"spool {self.root} already serves fingerprint "
                    f"{existing.get('fingerprint')!r} (experiment "
                    f"{existing.get('experiment')!r}); pass force=True to "
                    "replace it"
                )
            if force:
                self._wipe()  # force: recompute even completed shards
        for name in ("units", "pending", "leased", "results"):
            self._dir(name).mkdir(parents=True, exist_ok=True)
        _atomic_write(self.manifest_path, json.dumps(dict(manifest), indent=1, sort_keys=True))
        replicas = int(manifest.get("replicas") or 1)
        staged: set[tuple[int, int]] = set()
        for dname in ("pending", "leased"):
            for path in self._dir(dname).glob("unit-*.json"):
                index, replica, _ = self._parse_slot(path.name)
                staged.add((index, replica))
        for path in self._dir("results").glob("result-*.json"):
            staged.add(self._parse_result(path.name))
        enqueued = 0
        for unit in units:
            _atomic_write(self._dir("units") / self._unit_name(unit.index), unit.to_json())
            for k in range(replicas):
                if (unit.index, k) in staged:
                    continue
                slot = replace(unit, replica=k) if k else unit
                _atomic_write(
                    self._dir("pending") / self._slot_name(unit.index, k),
                    slot.to_json(),
                )
                enqueued += 1
        self.emit(
            "dispatch.serve",
            enqueued=enqueued,
            units=len(units),
            replicas=replicas,
            fingerprint=str(manifest.get("fingerprint", "")),
        )
        return enqueued

    def _wipe(self) -> None:
        for name in ("units", "pending", "leased", "results", "poison"):
            d = self._dir(name)
            if d.is_dir():
                for p in d.iterdir():
                    try:
                        p.unlink()
                    except OSError:
                        pass
        for p in (self.table_path, self.manifest_path):
            try:
                p.unlink()
            except OSError:
                pass

    def load_manifest(self, missing_ok: bool = False) -> dict | None:
        try:
            return json.loads(self.manifest_path.read_text())
        except OSError:
            if missing_ok:
                return None
            raise DispatchError(
                f"{self.root} is not a dispatch spool (no manifest.json; "
                "run `repro dispatch serve` first)"
            ) from None
        except ValueError as exc:
            raise DispatchError(f"corrupt manifest at {self.manifest_path}: {exc}") from exc

    # -- worker side -------------------------------------------------------

    def _lease_start(self, path: pathlib.Path) -> float | None:
        """When this slot's current lease began, on the broker's clock.

        Normally the claim-time ``utime`` stamp (the file mtime); when the
        slot JSON carries ``lease_start`` — written because ``utime``
        failed at claim — that value wins, so expiry math never mixes an
        injected clock with a wall-clock mtime.  ``None`` = the slot file
        vanished (claimed/requeued concurrently).
        """
        try:
            mtime = path.stat().st_mtime
        except OSError:
            return None
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return mtime
        start = data.get("lease_start")
        if isinstance(start, (int, float)) and not isinstance(start, bool):
            return float(start)
        return mtime

    def _poison(self, index: int, name: str, attempts: int, text: str) -> None:
        """Retire a slot whose retry budget is spent: write its marker
        into ``poison/`` and record the event.  The immutable original
        stays in ``units/``, so a human can still inspect — or
        force-re-serve — the poisoned work."""
        target = self._dir("poison") / name
        target.parent.mkdir(parents=True, exist_ok=True)
        if target.exists():
            return
        try:
            _atomic_write(target, text)
        except OSError:
            return
        self.emit("dispatch.poison", index=index, attempts=attempts)

    def requeue_expired(self, lease_timeout: float | None = None) -> list[int]:
        """Return timed-out leases to pending (any role may call this).

        A slot whose result file already exists is *not* requeued — its
        worker died between linking the result and unlinking the lease;
        re-executing settled work would only pollute the requeue trail.
        A slot whose next lease would exceed the manifest's
        ``max_attempts`` is moved to ``poison/`` instead of pending.
        """
        if lease_timeout is None:
            manifest = self.load_manifest()
        else:
            manifest = self.load_manifest(missing_ok=True) or {}
        if lease_timeout is None:
            lease_timeout = float(manifest.get("lease_timeout", 300.0))
        max_attempts = manifest.get("max_attempts")
        now = self.clock()
        requeued: list[int] = []
        leased = self._dir("leased")
        if not leased.is_dir():
            return requeued
        for path in sorted(leased.glob("unit-*.json")):
            index, replica, attempt = self._parse_slot(path.name)
            started = self._lease_start(path)
            if started is None:
                continue  # claimed/requeued concurrently
            if not now > started + lease_timeout:
                continue
            if self._result_path(index, replica).exists():
                # completed but never cleaned up: retire the lease, do
                # not re-execute settled work
                try:
                    path.unlink()
                except OSError:
                    pass
                continue
            if max_attempts is not None and attempt + 1 >= int(max_attempts):
                # the next lease would exceed the budget: one atomic
                # rename retires the slot into poison/
                marker = self._dir("poison") / self._slot_name(
                    index, replica, attempt + 1
                )
                marker.parent.mkdir(parents=True, exist_ok=True)
                try:
                    os.rename(path, marker)
                except OSError:
                    continue  # lost a race; someone else owns the slot now
                self.emit("dispatch.poison", index=index, attempts=attempt + 1)
                continue
            target = self._dir("pending") / self._slot_name(index, replica, attempt + 1)
            try:
                os.rename(path, target)
            except OSError:
                continue  # another participant requeued it first
            requeued.append(index)
            self.emit("dispatch.requeue", index=index, reason="lease_expired")
        return requeued

    def lease(self, worker: str = "") -> WorkUnit | None:
        """Claim the lowest-index pending slot via atomic rename.

        Slots for indexes this broker instance already completed are
        passed over while any other slot is claimable — a quorum tally
        needs *distinct* voters, and re-votes from the same worker count
        once — but never refused outright (liveness over strictness).
        """
        self.requeue_expired()
        pending = self._dir("pending")
        if not pending.is_dir():
            return None
        paths = sorted(pending.glob("unit-*.json"))
        preferred, fallback = [], []
        for path in paths:
            index = self._parse_slot(path.name)[0]
            (fallback if index in self._completed else preferred).append(path)
        for path in preferred + fallback:
            target = self._dir("leased") / path.name
            try:
                os.rename(path, target)
            except OSError:
                continue  # lost the race for this slot; try the next
            now = self.clock()
            utime_ok = True
            try:
                os.utime(target, (now, now))  # lease start under our clock
            except OSError:
                utime_ok = False
            index, replica, attempt = self._parse_slot(path.name)
            try:
                text = target.read_text()
                unit = WorkUnit.from_json(text)
            except OSError:
                continue  # slot vanished under us; try the next
            except DispatchError:
                # a torn unit file cannot be executed or retried; drop it
                # loudly in the trail and surface the error
                self.emit("dispatch.corrupt_unit", index=index)
                raise
            if not utime_ok or '"lease_start"' in text:
                # record the lease start *inside* the slot file so expiry
                # math stays on the broker's clock (virtual or real) —
                # both when utime failed (mtime = wall-clock rename time)
                # and when a previous claim left a now-stale recorded
                # start that survived the requeue rename
                try:
                    data = json.loads(text)
                    data["lease_start"] = now
                    _atomic_write(target, json.dumps(data, indent=1, sort_keys=True))
                except (OSError, ValueError):
                    pass  # claim stands; expiry falls back to the mtime
            unit = replace(unit, replica=replica, attempt=attempt)
            self.emit(
                "dispatch.lease",
                index=index,
                worker=worker or "?",
                attempt=attempt + 1,
                fingerprint=unit.fingerprint,
            )
            return unit
        return None

    def complete(self, result: WorkResult) -> str:
        """Record a completion: atomic first-write-wins on the slot's
        result file.

        Returns ``accepted`` or ``duplicate`` from the transport's point
        of view; content verification (fingerprint/hash/quorum) happens
        at collect, which requeues rejected slots.
        """
        final = self._result_path(result.index, result.replica)
        final.parent.mkdir(parents=True, exist_ok=True)
        tmp = final.with_suffix(f".json.{os.getpid()}.{result.worker or 'w'}.tmp")
        tmp.write_text(result.to_json())
        try:
            os.link(tmp, final)  # atomic: fails iff a result already exists
            verdict = ACCEPTED
        except FileExistsError:
            verdict = DUPLICATE
        finally:
            try:
                tmp.unlink()
            except OSError:
                pass
        lease = self._dir("leased") / self._slot_name(
            result.index, result.replica, result.attempt
        )
        fields: dict = {}
        started = self._lease_start(lease)
        if started is not None:
            # measured before the unlink so the trail carries the
            # claim-to-completion latency of every unit
            fields["lease_latency_s"] = round(max(0.0, self.clock() - started), 6)
        try:
            lease.unlink()
        except OSError:
            pass  # lease already expired/requeued: the result still counts
        self._completed.add(result.index)
        self.emit(
            "dispatch.complete",
            index=result.index,
            worker=result.worker or "?",
            verdict=verdict,
            **fields,
        )
        return verdict

    # -- collect side ------------------------------------------------------

    def sweep_results(self, reassembler: Reassembler) -> dict[str, int]:
        """Feed every on-disk result through the reassembler.

        Verified results are accepted — or, in quorum mode, recorded as
        votes (``vote``/``outvoted``) until a hash reaches majority.
        Stale or corrupt ones are deleted and their slots re-materialized
        into ``pending/`` from the immutable originals (carrying the
        retry count, honoring ``max_attempts``), so the retry loop closes
        without a supervisor.  Torn JSON (a reader racing a writer on a
        non-atomic transport) is treated as corrupt.  Stalled quorum
        tallies get tiebreaker slots before returning.
        """
        counts = {
            ACCEPTED: 0, DUPLICATE: 0, STALE: 0, CORRUPT: 0,
            VOTE: 0, OUTVOTED: 0,
        }
        results_dir = self._dir("results")
        if not results_dir.is_dir():
            return counts
        max_attempts = (self.load_manifest(missing_ok=True) or {}).get("max_attempts")
        for path in sorted(results_dir.glob("result-*.json")):
            index, replica = self._parse_result(path.name)
            if reassembler.is_accepted(index):
                continue  # already ingested/settled on a previous poll
            try:
                result = WorkResult.from_json(path.read_text())
            except DispatchError:
                result = None
                verdict = CORRUPT  # torn/truncated result file
            else:
                # at replicas=1 PayloadConflictError propagates: a verified
                # wrong answer must halt the collect, not be retried into
                # oblivion; in quorum mode it is survivable (outvoted)
                verdict = reassembler.accept(result)
            counts[verdict] += 1
            if verdict in (STALE, CORRUPT):
                try:
                    path.unlink()
                except OSError:
                    pass
                # a torn file carries no retry history; a decoded one does
                attempt = 0 if result is None else result.attempt
                # an out-of-grid index has no unit to retry — a foreign
                # result file is dropped, never turned into a crash
                if reassembler.in_grid(index) and self._requeue_from_original(
                    index, replica, attempt + 1, max_attempts
                ):
                    self.emit("dispatch.requeue", index=index, reason=verdict)
                self.emit("dispatch.reject", index=index, verdict=verdict)
        if reassembler.replicas > 1:
            self.materialize_tiebreakers(reassembler)
        return counts

    def _requeue_from_original(
        self,
        index: int,
        replica: int = 0,
        attempt: int = 0,
        max_attempts=None,
    ) -> bool:
        for dname in ("pending", "leased"):
            d = self._dir(dname)
            if not d.is_dir():
                continue
            for p in d.glob(f"unit-{index:05d}*.json"):
                if self._parse_slot(p.name)[1] == replica:
                    return False  # someone is already (re)working this slot
        original = self._dir("units") / self._unit_name(index)
        try:
            text = original.read_text()
        except OSError:
            raise DispatchError(
                f"cannot requeue unit {index}: original {original} unreadable"
            ) from None
        if replica:
            text = replace(WorkUnit.from_json(text), replica=replica).to_json()
        name = self._slot_name(index, replica, attempt)
        if max_attempts is not None and attempt >= int(max_attempts):
            self._poison(index, name, attempt, text)
            return False
        _atomic_write(self._dir("pending") / name, text)
        return True

    def materialize_tiebreakers(self, reassembler: Reassembler) -> list[int]:
        """Stage a fresh replica slot for every stalled tally: an index
        that is unsettled, has votes recorded, and has no slot pending or
        leased can only converge through another execution.  Poisoned
        indexes are left alone — their budget is spent."""
        live: set[int] = set()
        top: dict[int, int] = {}
        for dname in ("pending", "leased"):
            d = self._dir(dname)
            if d.is_dir():
                for p in d.glob("unit-*.json"):
                    index, replica, _ = self._parse_slot(p.name)
                    live.add(index)
                    top[index] = max(top.get(index, 0), replica)
        poisoned: set[int] = set()
        poison = self._dir("poison")
        if poison.is_dir():
            for p in poison.glob("unit-*.json"):
                poisoned.add(self._parse_slot(p.name)[0])
        results_dir = self._dir("results")
        if results_dir.is_dir():
            for p in results_dir.glob("result-*.json"):
                index, replica = self._parse_result(p.name)
                top[index] = max(top.get(index, 0), replica)
        made: list[int] = []
        for index in reassembler.missing():
            if index in live or index in poisoned:
                continue
            if not reassembler.voters(index):
                continue  # no votes yet: an empty slot, not a tie
            replica = max(top.get(index, 0), reassembler.replicas - 1) + 1
            original = self._dir("units") / self._unit_name(index)
            try:
                text = original.read_text()
            except OSError:
                continue
            slot = replace(WorkUnit.from_json(text), replica=replica)
            _atomic_write(
                self._dir("pending") / self._slot_name(index, replica),
                slot.to_json(),
            )
            made.append(index)
            self.emit("dispatch.requeue", index=index, reason="tiebreaker")
            self.emit(
                "dispatch.quorum",
                index=index,
                outcome="tie",
                votes={
                    h[:12]: c
                    for h, c in sorted(reassembler.vote_counts(index).items())
                },
            )
        return made

    def store_table(self, table_json: str) -> None:
        _atomic_write(self.table_path, table_json)

    def load_table(self) -> str | None:
        try:
            return self.table_path.read_text()
        except OSError:
            return None

    def counts(self) -> dict[str, int]:
        """Directory census for status lines and tests."""
        out = {}
        for name in ("pending", "leased", "results"):
            d = self._dir(name)
            out[name] = len(list(d.glob("*.json"))) if d.is_dir() else 0
        return out
