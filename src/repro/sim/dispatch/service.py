"""High-level dispatcher roles: serve, work, collect.

These are the functions behind the ``repro dispatch`` CLI verbs and the
CI smoke job.  They compose the transport (:class:`SpoolBroker`), the
wire codec, and the PR-2 result cache into the operator-facing workflow::

    serve    enumerate the sweep into units and enqueue them
             (or short-circuit on a table-level cache hit: zero units)
    work     pull-execute-complete loop, until the spool drains
    collect  requeue expired leases, verify + reassemble results,
             store the finished table (spool + result cache)

Cache discipline matches ``run_experiment``: the sweep fingerprint *is*
the cache key, so a warm ``serve`` enqueues nothing and a ``collect``
stores a table any future local or dispatched run can hit; ``force``
invalidates both the cache entry and any completed shards in the spool.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Mapping

from ...analysis.tables import TableResult
from ...telemetry import span
from .reassemble import Reassembler
from .spool import SpoolBroker, default_spool_root
from .wire import (
    DispatchError,
    IncompleteSweepError,
    execute_unit,
    spec_for_request,
    sweep_fingerprint,
    units_for_request,
)

__all__ = ["ServeReport", "collect", "serve", "spool_path_for", "work"]


def spool_path_for(experiment: str, fingerprint: str):
    """Default per-sweep spool: ``<root>/<experiment>-<fingerprint>/``."""
    return default_spool_root() / f"{experiment.lower()}-{fingerprint}"


@dataclass(frozen=True)
class ServeReport:
    """What serve did: where the spool is and how much work it holds."""

    spool: str
    fingerprint: str
    n_cells: int
    enqueued: int
    cache_hit: bool
    replicas: int = 1


def _result_cache(cache_dir):
    from ...experiments.cache import ResultCache

    return ResultCache(cache_dir)


def _reassembler(spec, manifest: Mapping, broker: SpoolBroker) -> Reassembler:
    """The spool's validator, at the quorum width its manifest records (a
    manifest from before quorum mode records none: width one)."""
    return Reassembler(
        spec, manifest["fingerprint"],
        replicas=int(manifest.get("replicas") or 1), emit=broker.emit,
    )


def serve(
    experiment: str,
    seed: int = 0,
    fast: bool = True,
    overrides: Mapping | None = None,
    spool: str | os.PathLike | None = None,
    lease_timeout: float = 300.0,
    cache: bool = False,
    force: bool = False,
    cache_dir: str | None = None,
    registry=None,
    replicas: int = 1,
    max_attempts: int | None = None,
) -> ServeReport:
    """Serialize a sweep into spool units (the producer role).

    With ``cache=True`` a stored table for the sweep's key short-circuits
    the whole dispatch: the table lands in the spool as ``table.json``
    and **zero units are enqueued** — completed work is never re-handed
    to workers.  ``force`` recomputes: cache hit ignored, spool wiped
    (including completed shards).  Re-serving an unfinished spool is
    idempotent and only enqueues the missing units.

    ``replicas=r > 1`` turns on quorum mode: every unit is staged as r
    replica slots and collect settles each index on the majority payload
    hash — the dispatch survives workers that compute wrong answers
    convincingly, at r× the compute.  ``max_attempts`` bounds retries per
    slot (a persistently-failing unit is poisoned loudly instead of
    retried forever); both land in the manifest, so work/collect pick
    them up with no extra flags.  ``lease_timeout`` must be positive.
    """
    if int(replicas) < 1:
        raise ValueError("replicas must be >= 1")
    if not lease_timeout > 0:
        # at zero any participant requeues a slot the instant it is
        # claimed: units run twice and, under max_attempts, poison
        raise ValueError(f"lease_timeout must be positive, got {lease_timeout}")
    overrides = dict(overrides or {})
    # validate like the runner: a typo'd override must fail at serve time,
    # not inside a worker three processes away
    from ...experiments.runner import validate_overrides

    validate_overrides(experiment.upper(), overrides, registry=registry)
    spec, units = units_for_request(
        experiment, seed, fast, overrides, registry=registry
    )
    fingerprint = units[0].fingerprint if units else sweep_fingerprint(
        experiment, seed, fast, overrides
    )
    root = spool_path_for(experiment, fingerprint) if spool is None else spool
    broker = SpoolBroker(root)
    manifest = {
        "experiment": experiment.upper(),
        "seed": int(seed),
        "fast": bool(fast),
        "overrides": overrides,
        "fingerprint": fingerprint,
        "n_cells": len(units),
        "lease_timeout": float(lease_timeout),
        "replicas": int(replicas),
        "max_attempts": None if max_attempts is None else int(max_attempts),
        "created": time.time(),
    }
    if cache and not force:
        store = _result_cache(cache_dir)
        hit = store.load(experiment.upper(), int(seed), bool(fast), overrides)
        if hit is not None:
            broker.initialize(manifest, units=[], force=False)
            broker.store_table(hit.to_json())
            return ServeReport(
                spool=str(root), fingerprint=fingerprint,
                n_cells=len(units), enqueued=0, cache_hit=True,
                replicas=int(replicas),
            )
    enqueued = broker.initialize(manifest, units, force=force)
    return ServeReport(
        spool=str(root), fingerprint=fingerprint,
        n_cells=len(units), enqueued=enqueued, cache_hit=False,
        replicas=int(replicas),
    )


def work(
    spool: str | os.PathLike,
    worker: str | None = None,
    max_units: int | None = None,
    poll: float = 0.2,
    timeout: float | None = None,
    registry=None,
    chaos=None,
) -> int:
    """Pull-execute-complete until the spool drains (the worker role).

    Exits when every unit has a **verified** result (or ``max_units``
    executed): each loop also sweeps the on-disk results through a
    validator, so a stale/corrupt completion left by a Byzantine
    colleague is rejected and its unit requeued by this worker — the
    retry loop closes without a supervisor, and a drill like ``--chaos
    corrupt:1`` cannot make the pool exit "done" on an unverifiable
    spool.  When nothing is claimable but units are still leased
    elsewhere, waits ``poll`` seconds and retries — expired leases get
    requeued on the next claim attempt, so a colleague killed mid-unit
    delays this worker by at most the lease timeout.  ``timeout`` bounds
    the total wait (DispatchError rather than a silent partial spool).
    ``chaos`` injects faults for the test harness (see
    :mod:`repro.sim.dispatch.chaos`).  The quorum width comes from the
    manifest (one for a manifest that predates quorum mode).  Each
    executed unit is one telemetry ``span`` (phase ``dispatch.execute``)
    in the spool's ``events.log``.

    A spool whose every remaining unit was poisoned (``max_attempts``
    spent, nothing pending or leased, quorum unsettleable) raises
    immediately — a persistently-failing unit can never livelock the
    worker pool.
    """
    broker = SpoolBroker(spool)
    manifest = broker.load_manifest()
    worker = worker or f"pid-{os.getpid()}"
    spec = spec_for_request(
        manifest["experiment"], manifest["seed"], manifest["fast"],
        manifest["overrides"], registry=registry,
    )
    # the worker-side validator: accepted results are only used as the
    # drain condition (collect re-verifies from disk for the table);
    # sweeping also deletes invalid result files and requeues their units
    reassembler = _reassembler(spec, manifest, broker)
    executed = 0
    deadline = None if timeout is None else time.time() + timeout
    while True:
        if broker.load_table() is not None:
            break  # already assembled (or staged by a serve-time cache hit)
        broker.sweep_results(reassembler)
        if reassembler.complete():
            break
        if max_units is not None and executed >= max_units:
            break
        unit = broker.lease(worker=worker)
        if unit is None:
            state = broker.counts()
            if state["pending"] == 0 and state["leased"] == 0:
                # nothing in flight anywhere: one more sweep (a colleague
                # may have completed between our sweep and the census),
                # then the spool is wedged — every remaining slot was
                # poisoned past max_attempts
                broker.sweep_results(reassembler)
                if reassembler.complete():
                    break
                state = broker.counts()
                if state["pending"] == 0 and state["leased"] == 0:
                    raise DispatchError(
                        f"spool {spool} is wedged: grid indexes "
                        f"{reassembler.missing()} have no claimable slots "
                        "left (poisoned past max_attempts?); re-serve with "
                        "force=True to retry them"
                    )
            if deadline is not None and time.time() > deadline:
                raise DispatchError(
                    f"worker {worker} timed out after {timeout}s with "
                    f"{broker.counts()}"
                )
            time.sleep(poll)
            continue
        with span("dispatch.execute", sink=broker, index=unit.index,
                  worker=worker):
            result = execute_unit(unit, worker=worker, spec=spec)
        if chaos is not None:
            result = chaos.apply(unit, result, broker)
            if result is None:  # the fault consumed the completion
                executed += 1
                continue
        broker.complete(result)
        executed += 1
    return executed


def collect(
    spool: str | os.PathLike,
    wait: bool = False,
    poll: float = 0.2,
    timeout: float | None = None,
    cache: bool = False,
    cache_dir: str | None = None,
    registry=None,
) -> TableResult:
    """Verify results and reassemble the table (the consumer role).

    Single pass by default: every on-disk result is hash- and
    fingerprint-verified, rejected ones are requeued, and the table is
    assembled iff all cells are in — otherwise :class:`IncompleteSweepError`
    names the missing indexes (**never a silent partial table**).
    ``wait=True`` polls (requeueing expired leases, so stragglers from
    dead workers resurface) until complete or ``timeout``.  A serve-time
    cache hit is returned directly; on success the table is stored in the
    spool and (with ``cache=True``) the result cache.  In quorum mode
    (manifest ``replicas`` > 1) each index must settle on a majority
    payload hash before it counts as present.
    """
    broker = SpoolBroker(spool)
    manifest = broker.load_manifest()

    def _store(table: TableResult) -> None:
        if cache:
            _result_cache(cache_dir).store(
                manifest["experiment"], int(manifest["seed"]),
                bool(manifest["fast"]), dict(manifest["overrides"]), table,
            )

    cached = broker.load_table()
    if cached is not None:
        # a previously staged table still honours cache=True: the operator
        # may be re-collecting precisely to publish it to the result cache
        table = TableResult.from_json(cached)
        _store(table)
        return table
    spec = spec_for_request(
        manifest["experiment"], manifest["seed"], manifest["fast"],
        manifest["overrides"], registry=registry,
    )
    reassembler = _reassembler(spec, manifest, broker)
    deadline = None if timeout is None else time.time() + timeout
    while True:
        broker.requeue_expired()
        broker.sweep_results(reassembler)
        if reassembler.complete():
            break
        if not wait:
            raise IncompleteSweepError(
                f"sweep {manifest['experiment']} incomplete: missing grid "
                f"indexes {reassembler.missing()}; run `repro dispatch work "
                f"--spool {spool}` (state: {broker.counts()})"
            )
        if deadline is not None and time.time() > deadline:
            raise IncompleteSweepError(
                f"collect timed out after {timeout}s; missing grid indexes "
                f"{reassembler.missing()} (state: {broker.counts()})"
            )
        time.sleep(poll)
    table = reassembler.table()
    broker.store_table(table.to_json())
    broker.emit("dispatch.collect", cells=reassembler.accepted_count())
    _store(table)
    return table
