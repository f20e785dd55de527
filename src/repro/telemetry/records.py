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

The ``bench.row`` payload is exactly the row shape of
``BENCH_vectorized.json`` (:func:`bench_row` — re-exported by
:mod:`repro.analysis.benchio`, whose file format predates this module):
the perf ledger and the event stream are the same record, stored twice.
"""

from __future__ import annotations

__all__ = [
    "EVENT_TYPES",
    "SCHEMA_VERSION",
    "TelemetryError",
    "bench_row",
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
    "dispatch.execute": {"index": (int,), "worker": (str,), "wall_s": _NUMBER},
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
    # sweep layer — per-cell kernel timings and sweep summaries
    "sweep.cell": {
        "experiment": (str,), "index": (int,), "kernel": (str,),
        "backend": (str,), "wall_s": _NUMBER,
    },
    "sweep.run": {
        "experiment": (str,), "cells": (int,), "kernel": (str,),
        "backend": (str,), "wall_s": _NUMBER,
    },
    # a sweep silently losing parallelism is not silent any more: emitted
    # when an unpicklable cell forces the in-process path
    "sweep.degrade": {"experiment": (str,), "reason": (str,)},
    # pool layer — warm worker-pool lifecycle + shm result transport volume
    "pool.spawn": {"workers": (int,), "mp_method": (str,)},
    "pool.reuse": {"workers": (int,), "requested": (int,)},
    "pool.broken": {"workers": (int,)},
    "shm.bytes": {
        "shm_bytes": (int,), "pickle_bytes": (int,), "segments": (int,),
    },
    # zero-copy *input* transport volume (context/probe arrays shipped to
    # workers through named segments instead of the executor's task pipe)
    "shm.input_bytes": {
        "shm_bytes": (int,), "pickle_bytes": (int,), "segments": (int,),
    },
    # memory layer — peak-RSS samples from chunked/streaming hot paths
    # (ru_maxrss is process-lifetime max, so samples are non-decreasing)
    "mem.peak": {"phase": (str,), "peak_rss_mb": _NUMBER},
    # serve layer — the async secure-routing query service (repro.serve):
    # one serve.request per answered query (outcome = delivered/corrupted/
    # unresolved/error, epoch = the snapshot generation that answered it)
    # and one serve.publish per epoch snapshot swap (wall_s = step + build)
    "serve.request": {"latency_s": _NUMBER, "epoch": (int,), "outcome": (str,)},
    "serve.publish": {"epoch": (int,), "wall_s": _NUMBER},
    # churn layer — a requested departure rate silently exceeding the
    # model's eps'/2 cap is an experiment-changing event, recorded once
    "churn.clipped": {"model": (str,), "rate": _NUMBER, "cap": _NUMBER},
    # bench layer — the perf ledger's row, timings.txt's line, and the
    # per-run host calibration measurement
    "bench.row": {
        "experiment": (str,), "n": (int,), "backend": (str,),
        "wall_s": _NUMBER, "cells": (int,), "trials": (int,),
    },
    "bench.timing": {
        "name": (str,), "backend": (str,), "workers": (int,), "wall_s": _NUMBER,
    },
    "bench.calibration": {"wall_s": _NUMBER},
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


def bench_row(
    experiment: str,
    n: int,
    backend: str,
    wall_s: float,
    cells: int,
    trials: int,
    peak_rss_mb: float | None = None,
) -> dict:
    """One benchmark measurement in the canonical row shape — the payload
    of a ``bench.row`` event and a ``BENCH_vectorized.json`` row alike.

    ``peak_rss_mb`` is the optional memory column the scale ledger
    (``BENCH_scale.json``) carries; it is omitted (not null-filled) when
    absent so the pre-existing row shape stays byte-stable.
    """
    row = {
        "experiment": str(experiment).upper(),
        "n": int(n),
        "backend": str(backend),
        "wall_s": round(float(wall_s), 6),
        "cells": int(cells),
        "trials": int(trials),
    }
    if peak_rss_mb is not None:
        row["peak_rss_mb"] = round(float(peak_rss_mb), 3)
    return row
