"""repro.telemetry — one structured event stream for every layer.

The reproduction's auditable-evidence substrate: the dispatch spool's
unit lifecycle, the worker pool, the serving layer and every timed
phase (sweeps and their cells, epoch publishes, static-search windows,
dispatched units) emit the same versioned jsonl record shape.
(Benchmark speedups are not events: their tools append JSON lines that
CI's paired-run gate judges.)

* :mod:`~repro.telemetry.records` — the schema: envelope
  ``{v, ts, type}`` + an open per-type field registry,
  :func:`make_event` / :func:`check_event`;
* :mod:`~repro.telemetry.writer` — :class:`TelemetryWriter`: each event
  is one ``write(2)`` on an ``O_APPEND`` descriptor, so any number of OS
  processes share a file without interleaving partial lines; monotonic,
  injectable clock; :class:`TelemetryBuffer` for in-process sinks;
* :mod:`~repro.telemetry.reader` — :func:`read_events`: permissive jsonl
  reading (unknown types/fields/versions tolerated, torn tail lines
  skipped);
* :mod:`~repro.telemetry.config` — the process-default sink
  (``$REPRO_TELEMETRY`` or :func:`set_default_writer`) the deep layers
  emit through;
* :mod:`~repro.telemetry.spans` — :func:`span`: one ``span`` event
  (dotted phase, wall time, peak RSS) per timed phase, and nothing at
  all when no sink is configured.

``repro telemetry report`` (:mod:`repro.analysis.telemetry_report`)
renders the span table and lease/retry/latency summaries from any
events file.
"""

from .config import (
    default_writer,
    emit_default,
    reset_default_writer,
    set_default_writer,
    telemetry_to,
)
from .reader import iter_events, read_events
from .records import (
    EVENT_TYPES,
    SCHEMA_VERSION,
    TelemetryError,
    check_event,
    make_event,
)
from .spans import peak_rss_mb, span
from .writer import TelemetryBuffer, TelemetryWriter

__all__ = [
    "EVENT_TYPES",
    "SCHEMA_VERSION",
    "TelemetryBuffer",
    "TelemetryError",
    "TelemetryWriter",
    "check_event",
    "default_writer",
    "emit_default",
    "iter_events",
    "make_event",
    "peak_rss_mb",
    "read_events",
    "reset_default_writer",
    "set_default_writer",
    "span",
    "telemetry_to",
]
