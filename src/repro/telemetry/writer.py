"""Appending events safely from many processes at once.

The writer's one load-bearing guarantee: **each event is a single
``write(2)`` on an ``O_APPEND`` descriptor**.  POSIX serializes appends —
the kernel atomically advances the file offset per write call — so any
number of OS processes (spool workers, spawn-pool children, the collect
role) can share one jsonl file and a reader can never observe two events
interleaved mid-line or a line split across writers (``open("a")`` +
buffered ``fh.write`` could flush a record in pieces).

Timestamps come from an injectable ``clock`` (default ``time.time`` so
events from different processes sort together) and are clamped monotonic
non-decreasing *per writer*: a clock stepping backwards (NTP, a virtual
test clock being rewound) never produces an out-of-order trail from one
emitter.

Emit errors split by blame: a malformed event (unknown envelope, a known
type missing required fields) raises :class:`TelemetryError` at the call
site — that is a bug in the emitter — while OS-level write failures are
swallowed, because observability must never break the protocol being
observed (the spool's rule since PR 5).

:class:`TelemetryBuffer` is the in-memory stand-in for in-process sinks
(``RoutingService(telemetry=...)``) and tests: same ``emit`` surface,
events land in a list instead of a file.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Callable

from .records import TelemetryError, check_event, make_event

__all__ = ["TelemetryBuffer", "TelemetryWriter"]


class _CheckedSink:
    """The emit path both sinks share: a clamped clock and the schema check."""

    def __init__(self, clock: Callable[[], float] | None):
        self.clock = time.time if clock is None else clock
        self._last_ts: float | None = None

    def _event(self, type: str, fields: dict) -> dict:
        """The checked event, stamped no earlier than the last one."""
        ts = float(self.clock())
        if self._last_ts is not None and ts < self._last_ts:
            ts = self._last_ts
        self._last_ts = ts
        event = make_event(type, ts=ts, **fields)
        problems = check_event(event)
        if problems:
            raise TelemetryError(
                f"refusing to emit malformed event: {'; '.join(problems)}"
            )
        return event


class TelemetryWriter(_CheckedSink):
    """Schema-checked jsonl appends, atomic under concurrent writers."""

    def __init__(
        self,
        path: str | os.PathLike,
        clock: Callable[[], float] | None = None,
    ):
        super().__init__(clock)
        self.path = pathlib.Path(path)
        self._fd: int | None = None

    def _ensure_fd(self) -> int:
        if self._fd is None:
            # the directory may not exist yet (a spool before initialize);
            # create it at first emit, not at construction
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                str(self.path), os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644
            )
        return self._fd

    def emit(self, type: str, **fields) -> dict:
        """Append one event; returns the event dict as written.

        Raises :class:`TelemetryError` for a schema violation (emitter
        bug); swallows ``OSError`` (a full disk must not kill a worker).
        """
        event = self._event(type, fields)
        try:
            line = json.dumps(event, sort_keys=True, separators=(",", ":"))
        except (TypeError, ValueError) as exc:
            raise TelemetryError(
                f"event payload for {type!r} is not JSON-serializable: {exc}"
            ) from exc
        try:
            os.write(self._ensure_fd(), (line + "\n").encode("utf-8"))
        except OSError:
            pass  # observability must never break the protocol
        return event

    def close(self) -> None:
        if self._fd is not None:
            try:
                os.close(self._fd)
            finally:
                self._fd = None

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing
        # writers are created ad hoc (one per spool broker); release the
        # descriptor when the owner goes away instead of leaking it
        self.close()


class TelemetryBuffer(_CheckedSink):
    """The writer surface over an in-memory list (in-process sinks, tests)."""

    def __init__(self, clock: Callable[[], float] | None = None):
        super().__init__(clock)
        self.events: list[dict] = []

    def emit(self, type: str, **fields) -> dict:
        event = self._event(type, fields)
        self.events.append(event)
        return event

    def of_type(self, type: str) -> list[dict]:
        return [e for e in self.events if e.get("type") == type]
