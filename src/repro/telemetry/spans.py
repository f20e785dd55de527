"""Timed phases: one ``span`` event per phase, wall time and peak RSS.

Every timing and memory reading in the stream has one shape: a ``span``
event ``{phase, wall_s, peak_rss_mb, ...}`` emitted when a phase ends.
Phases are dotted names (``sweep.E1``, ``sweep.E1.cell``,
``serve.publish``, ``static.search.window``, ``dispatch.execute``), and
the dots are the phase tree: ``sweep.E1.cell`` runs inside
``sweep.E1``, so no parent stack is kept and ``repro telemetry report``
folds every emitter into one table.

* :func:`span` — the context manager the emitters wrap their phases in.
  With no sink configured it does nothing at all: no clock read, no
  ``getrusage``, no event.  A body that raises emits nothing either;
* :func:`peak_rss_mb` — ``getrusage(RUSAGE_SELF).ru_maxrss`` normalized to
  MiB (Linux reports KiB, macOS bytes); ``None`` where the ``resource``
  module is unavailable, so callers degrade to "no sample" instead of
  crashing on exotic platforms.

``ru_maxrss`` is the *process-lifetime* maximum: a span's peak is the
largest footprint the process had reached by the end of the phase, so
it attributes a peak to the first phase that reached it, not to every
phase that stayed under it.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

from .config import default_writer

__all__ = ["peak_rss_mb", "span"]


def peak_rss_mb() -> float | None:
    """Process peak resident set size in MiB, or ``None`` if unreadable."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None
    ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if ru <= 0:  # pragma: no cover - kernel reported nothing usable
        return None
    # Linux counts ru_maxrss in KiB; macOS counts bytes.
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return float(ru) / scale


@contextmanager
def span(phase: str, sink=None, **fields):
    """Emit one ``span`` event for the ``with`` body when it completes.

    ``sink`` is any object with the writer's ``emit`` (a
    :class:`~repro.telemetry.TelemetryWriter`, a buffer, a spool broker);
    ``None`` means the process default.  Extra keyword fields (a cell
    index, an epoch, a worker name) ride along in the event.
    """
    if sink is None:
        sink = default_writer()
    if sink is None:
        yield
        return
    t0 = time.perf_counter()
    yield
    wall_s = time.perf_counter() - t0
    mb = peak_rss_mb()
    sink.emit(
        "span",
        phase=str(phase),
        wall_s=round(wall_s, 6),
        peak_rss_mb=None if mb is None else round(mb, 3),
        **fields,
    )
