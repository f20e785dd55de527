"""Byzantine-worker fault injection for the dispatcher's own test bench.

The paper extracts reliable global answers from small unreliable
participants; this module holds the dispatcher to the same bar.  A
:class:`FaultyWorker` wraps the honest pull-execute-complete loop with
one of the adversarial behaviours the broker/reassembler contract claims
to survive:

``kill``
    dies mid-unit (claims, computes nothing, never completes) — the
    lease expires and the unit is retried elsewhere;
``stall``
    holds its unit past the lease deadline, then completes *late* — by
    then the unit was re-executed, so the late result must land as a
    bit-identical duplicate, never a clobber;
``duplicate``
    completes every unit twice — the second must be idempotent;
``corrupt``
    tampers with the payload after hashing — the recomputed hash
    mismatch rejects it and the unit is retried;
``stale``
    replays a result under a foreign sweep fingerprint — rejected as
    belonging to a different generation;
``equivocate``
    computes a plausible-but-wrong payload and hashes it *correctly* —
    internally consistent, undetectable by verification alone; only a
    quorum (``replicas >= 3``) can outvote it.  Each equivocator's wrong
    answer is salted by its own identity, so independent liars disagree
    with each other as well as with the truth;
``split``
    the coordinated variant: every worker sharing a ``salt`` produces
    the *same* wrong hash, so a pair can split a small quorum down the
    middle and force tiebreakers (or, past the ⌈r/2⌉ bound, steal the
    vote — which is exactly why the byte-identity guarantee is stated
    as "strictly fewer than ⌈r/2⌉ equivocators per unit");
``adaptive``
    behaves honestly until it has observed ``after`` of its own leases,
    then starts equivocating — the adaptive adversary that watches
    traffic before striking (PAPERS.md: "Improved Byzantine Agreement
    under an Adaptive Adversary").

Faults carry a ``budget`` and turn honest once it is spent, so every
schedule terminates (the Byzantine fraction is transient, mirroring the
paper's bounded-adversary setting; a fault with an unlimited budget
would need at least one honest worker to guarantee progress).

:func:`run_chaos` drives N such workers against a :class:`SpoolBroker`
under a **virtual clock** with an RNG-chosen interleaving: each step, a
random worker acts and time advances a random amount, so lease expiry races,
duplicate orderings, and requeue storms are all explored — seeded, hence
reproducible.  The invariant under test: *whatever the schedule, the
reassembled table is byte-identical to the serial oracle's.*

:class:`CliChaos` is the OS-process variant used by the ``work`` verb's
``--chaos`` flag (e.g. ``kill:1`` hard-kills the worker process mid-unit
— the CI smoke job's injected fault).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .reassemble import Reassembler
from .spool import SpoolBroker
from .wire import DispatchError, WorkResult, WorkUnit, execute_unit

__all__ = [
    "CliChaos",
    "FAULT_KINDS",
    "FaultyWorker",
    "VirtualClock",
    "WorkerFault",
    "equivocate_result",
    "run_chaos",
]

FAULT_KINDS = (
    "honest", "kill", "stall", "duplicate", "corrupt", "stale",
    "equivocate", "split", "adaptive",
)


class VirtualClock:
    """A clock the chaos driver advances by hand (starts at an arbitrary
    positive epoch so spool mtimes stay plausible)."""

    def __init__(self, start: float = 1_000_000.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("time only moves forward")
        self._now += dt


@dataclass(frozen=True)
class WorkerFault:
    """One worker's adversarial persona.

    ``budget`` = how many units the fault applies to before the worker
    turns honest (``kill`` ignores it: death is permanent).  ``stall_for``
    = how far past claim time a stalling worker sits on its unit; choose
    it larger than the lease timeout to force a requeue + late duplicate.
    ``salt`` = the coordination key for ``split`` personas (same salt =
    same wrong hash); ``after`` = how many of its own leases an
    ``adaptive`` persona observes before it starts equivocating.
    """

    kind: str = "honest"
    budget: int = 1
    stall_for: float = 0.0
    salt: str = ""
    after: int = 0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )


def corrupt_result(result: WorkResult) -> WorkResult:
    """Tamper with the payload *after* hashing (detectable corruption)."""
    payload = dict(result.payload)
    rows = [list(r) for r in payload.get("rows", [])]
    rows.append(["corrupted-by-byzantine-worker"])
    payload["rows"] = rows
    return WorkResult(
        fingerprint=result.fingerprint,
        index=result.index,
        payload=payload,
        payload_sha256=result.payload_sha256,  # now a lie
        worker=result.worker,
        replica=result.replica,
        attempt=result.attempt,
    )


def staleify_result(result: WorkResult) -> WorkResult:
    """Replay the (otherwise valid) result under a foreign fingerprint."""
    return WorkResult(
        fingerprint="0" * 20,  # no real sweep generation hashes to this
        index=result.index,
        payload=result.payload,
        payload_sha256=result.payload_sha256,
        worker=result.worker,
        replica=result.replica,
        attempt=result.attempt,
    )


def equivocate_result(result: WorkResult, salt: str = "") -> WorkResult:
    """A plausible-but-wrong answer, hashed *correctly*.

    The payload keeps the honest shape (same row/note structure) but its
    first numeric cell is nudged, and the hash is recomputed over the
    tampered bytes — so fingerprint and hash verification both pass, and
    only a quorum can tell truth from confident fiction.  The tamper is
    deterministic in ``(index, salt)``: workers sharing a salt coordinate
    on one wrong hash (the quorum-splitting pair), distinct salts
    disagree with each other too.
    """
    from .wire import payload_hash

    payload = json.loads(json.dumps(result.payload))  # deep JSON copy
    tampered = False
    for row in payload.get("rows", []):
        for j, value in enumerate(row):
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                row[j] = value + 1  # plausible magnitude, wrong answer
                tampered = True
                break
        if tampered:
            break
    if not tampered:  # a payload with no numeric cells: tamper the notes
        payload["notes"] = list(payload.get("notes", [])) + ["equivocated"]
    if salt:
        payload["notes"] = list(payload.get("notes", [])) + [f"salt:{salt}"]
    return WorkResult(
        fingerprint=result.fingerprint,
        index=result.index,
        payload=payload,
        payload_sha256=payload_hash(payload),  # consistent: the lie holds up
        worker=result.worker,
        replica=result.replica,
        attempt=result.attempt,
    )


class FaultyWorker:
    """A pull worker with an adversarial persona, stepped by the driver."""

    def __init__(self, worker_id: str, broker, spec, fault: WorkerFault,
                 clock: VirtualClock):
        self.worker_id = worker_id
        self.broker = broker
        self.spec = spec
        self.fault = fault
        self.clock = clock
        self.dead = False
        self.budget_left = fault.budget
        self.leases_observed = 0  # what the adaptive persona watches
        self._held: tuple[WorkUnit, WorkResult, float] | None = None  # stall

    def _execute(self, unit: WorkUnit) -> WorkResult:
        return execute_unit(unit, worker=self.worker_id, spec=self.spec)

    def step(self) -> bool:
        """Do one action; returns False when idle (nothing claimable) or
        dead — the driver uses it to detect livelock."""
        if self.dead:
            return False
        if self._held is not None:
            unit, result, submit_at = self._held
            if self.clock.now() < submit_at:
                return True  # still stalling — holding the lease IS the act
            self._held = None
            self.broker.complete(result)  # late: duplicate or first, both fine
            return True
        unit = self.broker.lease(worker=self.worker_id)
        if unit is None:
            return False
        self.leases_observed += 1
        faulting = self.fault.kind != "honest" and self.budget_left > 0
        if self.fault.kind == "adaptive":
            # strikes only once it has watched enough of its own leases —
            # the observation the adaptive adversary conditions on
            faulting = faulting and self.leases_observed > self.fault.after
        if faulting and self.fault.kind == "kill":
            self.dead = True  # mid-unit death: lease dangles until expiry
            return True
        result = self._execute(unit)
        if not faulting:
            self.broker.complete(result)
            return True
        self.budget_left -= 1
        if self.fault.kind == "stall":
            self._held = (unit, result, self.clock.now() + self.fault.stall_for)
            return True
        if self.fault.kind == "duplicate":
            self.broker.complete(result)
            self.broker.complete(result)
            return True
        if self.fault.kind == "corrupt":
            self.broker.complete(corrupt_result(result))
            return True
        if self.fault.kind == "stale":
            self.broker.complete(staleify_result(result))
            return True
        if self.fault.kind in ("equivocate", "adaptive"):
            # self-salted: independent liars disagree with each other
            self.broker.complete(equivocate_result(result, salt=self.worker_id))
            return True
        if self.fault.kind == "split":
            # salt-coordinated: every member of the pair tells one lie
            self.broker.complete(
                equivocate_result(result, salt=self.fault.salt or "split")
            )
            return True
        raise AssertionError(f"unhandled fault {self.fault.kind}")  # pragma: no cover


def run_chaos(
    spec,
    units: list[WorkUnit],
    faults: list[WorkerFault],
    spool_dir,
    seed: int = 0,
    lease_timeout: float = 10.0,
    max_steps: int | None = None,
    replicas: int = 1,
    max_attempts: int | None = None,
):
    """Drive faulty workers over a spool until the sweep completes.

    Returns the reassembled :class:`TableResult`.  ``faults`` defines the
    worker pool (at least one persona must be able to act honestly, or the
    driver raises on livelock).  The workers share one
    :class:`SpoolBroker` rooted at ``spool_dir`` under the virtual clock,
    so lease expiry is schedule-driven, not wall-clock-driven; between
    steps the driver plays the collect role.  ``replicas``/
    ``max_attempts`` configure quorum mode and the retry budget, so the
    equivocating personas can be outvoted instead of fatal.
    """
    clock = VirtualClock()
    broker = SpoolBroker(spool_dir, clock=clock.now)
    fingerprint = units[0].fingerprint if units else ""
    broker.initialize(
        {
            "experiment": spec.experiment,
            "seed": spec.seed,
            "fast": True,
            "overrides": {},
            "fingerprint": fingerprint,
            "n_cells": len(units),
            "lease_timeout": float(lease_timeout),
            "replicas": int(replicas),
            "max_attempts": max_attempts,
        },
        units,
    )
    reassembler = Reassembler(
        spec, fingerprint, replicas=replicas, emit=broker.emit
    )

    def settled() -> bool:
        broker.requeue_expired()
        broker.sweep_results(reassembler)
        return reassembler.complete()

    rng = np.random.default_rng(seed)
    workers = [
        FaultyWorker(f"w{i}-{f.kind}", broker, spec, f, clock)
        for i, f in enumerate(faults)
    ]
    # generous default: every unit may be retried by every worker several
    # times before we call livelock (each replica slot is its own retry)
    if max_steps is None:
        max_steps = 200 + 40 * len(units) * max(1, replicas) * max(1, len(workers))
    idle_streak = 0
    for _ in range(max_steps):
        if settled():
            break
        acted = workers[int(rng.integers(len(workers)))].step()
        # uneven, RNG-chosen time steps: sometimes instant (races), often
        # a fraction of the lease, occasionally far past it (expiry)
        clock.advance(float(rng.random()) ** 2 * lease_timeout * 0.75)
        if acted:
            idle_streak = 0
        else:
            idle_streak += 1
            if idle_streak > 4 * max(1, len(workers)):
                # everyone idle/dead while work remains: force expiry
                clock.advance(lease_timeout * 2)
    if not settled():
        raise DispatchError(
            f"chaos schedule did not complete within {max_steps} steps "
            f"(outstanding={len(units) - reassembler.accepted_count()}); "
            "is every worker faulty with an unlimited budget?"
        )
    return reassembler.table()


class CliChaos:
    """Fault injection for OS-process workers (``dispatch work --chaos``).

    Spec grammar (comma-separated): ``kill:K`` — hard-kill the worker
    process (``os._exit``) while handling its K-th unit, *before*
    completing it, leaving a dangling lease exactly as a crashed machine
    would; ``corrupt:K`` — tamper the K-th completion's payload after
    hashing; ``stale:K`` — submit the K-th completion under a foreign
    fingerprint; ``equivocate:K`` — submit a plausible-but-wrong,
    hash-consistent payload for the K-th completion *and every one
    after it* (a persistently lying machine — the drill a quorum spool
    must outvote).  Used by tests and the CI smoke job; documented so a
    human operator can stage a failure drill on a real spool.
    """

    KINDS = ("kill", "corrupt", "stale", "equivocate")

    def __init__(self, spec_text: str):
        self.plan: dict[str, int] = {}
        self.seen = 0
        for part in filter(None, (p.strip() for p in spec_text.split(","))):
            kind, _, arg = part.partition(":")
            if kind not in self.KINDS:
                raise ValueError(
                    f"unknown chaos fault {kind!r} (grammar: kill:K, "
                    "corrupt:K, stale:K, equivocate:K)"
                )
            self.plan[kind] = int(arg or 1)

    def apply(self, unit: WorkUnit, result: WorkResult, broker):
        """Called by ``work`` after executing each unit.  Returns the
        (possibly tampered) result to submit, or None if the fault
        consumed the completion."""
        self.seen += 1
        if self.plan.get("kill") == self.seen:
            os._exit(17)  # mid-unit death: no completion, dangling lease
        if self.plan.get("corrupt") == self.seen:
            broker.complete(corrupt_result(result))
            return None
        if self.plan.get("stale") == self.seen:
            broker.complete(staleify_result(result))
            return None
        if "equivocate" in self.plan and self.seen >= self.plan["equivocate"]:
            # persistent: this worker's *every* answer from here on is a
            # consistent lie, salted by its identity
            broker.complete(
                equivocate_result(result, salt=result.worker or "cli")
            )
            return None
        return result
