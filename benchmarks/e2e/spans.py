"""Spans timed from outside the program, kept in memory.

:class:`Tracer` swaps a callable for a timing wrapper under the name its
callers look it up by: a module global (``repro.core.dynamic.
build_new_graph``, which ``EpochSimulator.step`` resolves at call time)
or a class attribute (``repro.inputgraph.chord.ChordGraph.route_many``,
which every bound call resolves through the class).  Nothing under
``src/`` changes; :meth:`Tracer.uninstall` puts the originals back.

Each thread keeps its own span stack, so a span's *self* time (its wall
minus the walls of the spans it directly encloses) never mixes work from
the serving loop with work running in another thread.
Spans are aggregated by their ancestor path as they close; the summary
is plain JSON so a traced server process can write it to a file.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from collections import Counter
from typing import Callable, Iterator, Mapping

# Maps (result, args, kwargs) of one wrapped call to counters that are
# added to Tracer.counts.
CountHook = Callable[[object, tuple, dict], Mapping[str, int]]


class _ThreadLog:
    """One thread's open-span stack and its closed-span aggregates."""

    __slots__ = ("thread", "stack", "paths", "cpu")

    def __init__(self, thread: str):
        self.thread = thread
        self.stack: list[list] = []            # [path, start, child wall]
        self.paths: dict[tuple, list] = {}     # path -> [calls, wall, self]
        # root span name -> [thread CPU at its first entry, at its last exit]
        self.cpu: dict[str, list[float]] = {}


def resolve(dotted: str) -> tuple[object, str, object]:
    """``"pkg.mod.Class.attr"`` -> ``(Class, "attr", Class.__dict__["attr"])``.

    A module owner works the same way.  A class must define the attribute
    itself, so restoring it never shadows an inherited one.

    Raises ``LookupError`` naming ``dotted`` when any part is missing, so
    a trace map left stale by a rename fails loudly.
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        modname = ".".join(parts[:cut])
        try:
            owner = importlib.import_module(modname)
        except ModuleNotFoundError as exc:
            if exc.name is not None and modname.startswith(exc.name):
                continue
            raise
        try:
            for part in parts[cut:-1]:
                owner = getattr(owner, part)
        except AttributeError:
            break
        attrs = vars(owner)
        if parts[-1] in attrs:
            return owner, parts[-1], attrs[parts[-1]]
        break
    raise LookupError(f"trace target {dotted} does not resolve")


class Tracer:
    """Per-thread span stacks over wrapped callables."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        cpu_clock: Callable[[], float] = time.thread_time,
    ):
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.current_thread().name)
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def enter(self, name: str) -> None:
        log = self._log()
        if log.stack:
            path = log.stack[-1][0] + (name,)
        else:
            path = (name,)
            if name not in log.cpu:
                now = self._cpu_clock()
                log.cpu[name] = [now, now]
        log.stack.append([path, self._clock(), 0.0])

    def exit(self) -> None:
        end = self._clock()
        log = self._log()
        path, start, child = log.stack.pop()
        wall = end - start
        if log.stack:
            log.stack[-1][2] += wall
        else:
            log.cpu[path[0]][1] = self._cpu_clock()
        agg = log.paths.get(path)
        if agg is None:
            agg = log.paths[path] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += wall
        agg[2] += wall - child

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def count(self, counters: Mapping[str, int]) -> None:
        with self._lock:
            self.counts.update(counters)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn: Callable, name: str, hook: CountHook | None = None):
        """``fn`` timed as span ``name``; ``hook`` counts from each call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if hook is not None:
                self.count(hook(result, args, kwargs))
            return result

        return traced

    def install(self, entries) -> None:
        """Wrap every ``(dotted, span[, hook])`` entry in place."""
        for entry in entries:
            dotted, name = entry[0], entry[1]
            hook = entry[2] if len(entry) > 2 else None
            owner, attr, original = resolve(dotted)
            setattr(owner, attr, self.wrap(original, name, hook))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Closed spans by ancestor path, counters and per-thread CPU."""
        spans: dict[tuple, list] = {}
        threads = []
        with self._lock:
            logs = list(self._logs)
            counts = dict(self.counts)
        for log in logs:
            for path, (calls, wall, self_s) in list(log.paths.items()):
                agg = spans.setdefault(path, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += wall
                agg[2] += self_s
            threads.append({"thread": log.thread, "cpu": dict(log.cpu)})
        return {
            "spans": [
                {"path": list(path), "calls": c, "wall_s": w, "self_s": s}
                for path, (c, w, s) in sorted(spans.items())
            ],
            "counts": counts,
            "threads": threads,
        }
