"""The telemetry schema: one versioned record shape for every sink.

Every event is a flat JSON object with a three-field envelope

.. code-block:: json

    {"v": 1, "ts": 1723111845.201, "type": "dispatch.lease", ...}

``v`` is the schema version (bumped only when an *existing* field changes
meaning; adding record types or optional fields is not a bump), ``ts`` is
seconds on the emitting writer's clock (monotonic non-decreasing per
writer, injectable for tests), and ``type`` names the record in the
``layer.event`` registry below.  Everything else is the record's payload.

The registry is deliberately *open*: readers must tolerate unknown types
and unknown fields (a newer writer, a scenario-specific annotation), and
:func:`check_event` only rejects events that are structurally unusable —
no envelope, or a *known* type missing one of its required fields.
Writers validate before the line hits disk, so a malformed emit fails the
emitter loudly instead of poisoning the stream; readers stay permissive,
so version skew between the processes sharing one file never loses data.
"""

from __future__ import annotations

__all__ = [
    "EVENT_TYPES",
    "SCHEMA_VERSION",
    "TelemetryError",
    "check_event",
    "make_event",
]

SCHEMA_VERSION = 1

# envelope keys every event carries
_ENVELOPE = ("v", "ts", "type")

_NUMBER = (int, float)

# required payload fields per known type: name -> (field -> accepted types).
# Optional fields (lease_latency_s, reason, workers, ...) are by design not
# listed: presence-checking them would turn additions into breaking changes.
EVENT_TYPES: dict[str, dict[str, tuple]] = {
    # dispatch layer — the spool/broker unit lifecycle
    "dispatch.serve": {"enqueued": (int,), "units": (int,), "fingerprint": (str,)},
    "dispatch.lease": {"index": (int,), "worker": (str,)},
    "dispatch.complete": {"index": (int,), "worker": (str,), "verdict": (str,)},
    "dispatch.requeue": {"index": (int,)},
    "dispatch.reject": {"index": (int,), "verdict": (str,)},
    "dispatch.corrupt_unit": {"index": (int,)},
    "dispatch.collect": {"cells": (int,)},
    # quorum mode: vote tallies (outcome = vote/settled/outvoted/tie, with
    # per-hash counts in the optional `votes` field), slots whose retry
    # budget ran out, and the per-worker suspicion counter
    "dispatch.quorum": {"index": (int,), "outcome": (str,)},
    "dispatch.poison": {"index": (int,), "attempts": (int,)},
    "dispatch.suspect": {"worker": (str,), "suspicion": (int,)},
    # a timed phase (repro.telemetry.spans): the dotted phase is its place
    # in the phase tree (sweep.E1 > sweep.E1.cell), wall_s its wall time;
    # peak_rss_mb (the process high-water mark, null where unreadable)
    # and the emitter's own fields (index, epoch, worker, ...) ride along
    "span": {"phase": (str,), "wall_s": _NUMBER},
    # sweep layer — a sweep silently losing parallelism is not silent any
    # more: emitted when an unpicklable cell forces the in-process path
    "sweep.degrade": {"experiment": (str,), "reason": (str,)},
    # pool layer — warm worker-pool lifecycle
    "pool.spawn": {"workers": (int,), "mp_method": (str,)},
    "pool.reuse": {"workers": (int,), "requested": (int,)},
    "pool.broken": {"workers": (int,)},
    # serve layer — the async secure-routing query service (repro.serve):
    # one serve.request per answered query (outcome = delivered/corrupted/
    # unresolved/error, epoch = the snapshot generation that answered it)
    "serve.request": {"latency_s": _NUMBER, "epoch": (int,), "outcome": (str,)},
    # churn layer — a requested departure rate silently exceeding the
    # model's eps'/2 cap is an experiment-changing event, recorded once
    "churn.clipped": {"model": (str,), "rate": _NUMBER, "cap": _NUMBER},
}


class TelemetryError(RuntimeError):
    """A telemetry invariant was violated (malformed event, bad stream)."""


def make_event(type: str, ts: float, **fields) -> dict:
    """Assemble one event dict (envelope first, then payload fields).

    Payload fields may not shadow the envelope; that is a programmer
    error, not a schema evolution.
    """
    clash = set(fields) & set(_ENVELOPE)
    if clash:
        raise TelemetryError(
            f"payload fields {sorted(clash)} shadow the event envelope"
        )
    event = {"v": SCHEMA_VERSION, "ts": float(ts), "type": str(type)}
    event.update(fields)
    return event


def check_event(event: object) -> list[str]:
    """Structural problems with ``event`` (empty list = acceptable).

    Unknown types and extra fields are *not* problems — the registry is
    open.  Problems are: not a dict, a missing/ill-typed envelope, or a
    known type missing (or mis-typing) a required payload field.
    """
    if not isinstance(event, dict):
        return [f"event is {type(event).__name__}, not an object"]
    problems = []
    if not isinstance(event.get("v"), int):
        problems.append("missing/non-integer schema version 'v'")
    if not isinstance(event.get("ts"), _NUMBER) or isinstance(event.get("ts"), bool):
        problems.append("missing/non-numeric timestamp 'ts'")
    etype = event.get("type")
    if not isinstance(etype, str) or not etype:
        problems.append("missing/empty 'type'")
        return problems
    required = EVENT_TYPES.get(etype)
    if required is None:
        return problems  # unknown type: tolerated by contract
    for name, types in required.items():
        value = event.get(name)
        if isinstance(value, bool) or not isinstance(value, types):
            problems.append(
                f"{etype}: field {name!r} must be "
                f"{'/'.join(t.__name__ for t in types)}, got {value!r}"
            )
    return problems

