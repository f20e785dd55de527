"""Pipelined closed- and open-loop load over JSON-lines connections.

``repro.serve.load.run_load`` cannot drive this benchmark: it allows one
request in flight per connection, and in open mode it starts each
request's clock after its sleep wakes, so a late generator hides its own
lateness.  Here each connection keeps any number of requests in flight
(the service answers a connection's lines in order, so replies pair with
requests first-in first-out), and an open-loop request is timed from its
*scheduled* send time; how late the send actually went out is reported
beside it.

Everything runs on one event loop in one process.  Replies are stored
raw and checked after the phase, so the loop does no parsing while it
measures.
"""

from __future__ import annotations

import asyncio
import collections
import time

import numpy as np

from stats import percentile

DRAIN_S = 10.0          # how long a phase waits for its last replies
MAX_LATE_P99_MS = 10.0  # beyond this the generator, not the server, is timed


class Queries:
    """The query stream of one phase: uniform sources and targets."""

    CHUNK = 4096

    def __init__(self, seed: int, phase: int, n: int):
        self._rng = np.random.default_rng([seed, phase])
        self._n = n
        self._buf: collections.deque = collections.deque()

    def take(self) -> tuple[int, float, bytes]:
        if not self._buf:
            sources = self._rng.integers(0, self._n, size=self.CHUNK)
            targets = self._rng.random(self.CHUNK)
            self._buf.extend(
                (int(s), float(t),
                 b'{"op":"query","source":%d,"target":%r}\n' % (s, float(t)))
                for s, t in zip(sources, targets)
            )
        return self._buf.popleft()


def arrival_schedule(seed: int, rate: float, duration: float) -> np.ndarray:
    """Poisson send offsets (seconds from phase start) within ``duration``."""
    rng = np.random.default_rng([seed, 0xA5])
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.5) + 64)
    offsets = np.cumsum(gaps)
    while offsets[-1] < duration:
        more = rng.exponential(1.0 / rate, size=offsets.size)
        offsets = np.concatenate([offsets, offsets[-1] + np.cumsum(more)])
    return offsets[offsets < duration]


class Phase:
    """Every request one phase sent, in send order."""

    def __init__(self, name: str):
        self.name = name
        self.sources: list[int] = []
        self.targets: list[float] = []
        self.due: list[float] = []
        self.sent: list[float] = []
        self.done: list[float | None] = []
        self.lines: list[bytes | None] = []
        self.start = 0.0

    def add(self, source: int, target: float, due: float, sent: float) -> int:
        self.sources.append(source)
        self.targets.append(target)
        self.due.append(due)
        self.sent.append(sent)
        self.done.append(None)
        self.lines.append(None)
        return len(self.sources) - 1

    @property
    def answered(self) -> list[int]:
        return [i for i, d in enumerate(self.done) if d is not None]

    def latencies_ms(self) -> list[float]:
        """Reply time minus scheduled send time, for answered requests."""
        return [(self.done[i] - self.due[i]) * 1e3 for i in self.answered]

    def late_ms(self) -> list[float]:
        return [(s - d) * 1e3 for s, d in zip(self.sent, self.due)]

    def late_p99_ms(self) -> float:
        late = self.late_ms()
        return percentile(late, 99) if late else 0.0

    def throughput(self) -> float:
        """Replies per second from phase start to the last reply."""
        answered = self.answered
        if not answered:
            return 0.0
        last = max(self.done[i] for i in answered)
        return len(answered) / (last - self.start)


class Connection(asyncio.Protocol):
    """One pipelined connection; replies pair with requests in order."""

    def __init__(self):
        self.transport: asyncio.Transport | None = None
        self.inflight: collections.deque = collections.deque()
        self.on_reply = None    # called with (connection, replies) per read
        self.unexpected = 0     # reply lines with no request waiting
        self.closed = False
        self._tail = b""

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        now = time.perf_counter()
        *lines, self._tail = (self._tail + data).split(b"\n")
        for line in lines:
            if not self.inflight:
                self.unexpected += 1
                continue
            phase, i = self.inflight.popleft()
            phase.done[i] = now
            phase.lines[i] = line
        if lines and self.on_reply is not None:
            self.on_reply(self, len(lines))

    def connection_lost(self, exc) -> None:
        self.closed = True

    def send(self, phase: Phase, queries: Queries, k: int,
             due: float | None = None) -> None:
        """Send ``k`` queries now; ``due`` defaults to the send time."""
        now = time.perf_counter()
        payload = []
        for _ in range(k):
            source, target, line = queries.take()
            i = phase.add(source, target, now if due is None else due, now)
            if not self.closed:  # else it stays unanswered: a failure
                self.inflight.append((phase, i))
                payload.append(line)
        if payload:
            self.transport.write(b"".join(payload))


async def connect(host: str, port: int, count: int) -> list[Connection]:
    loop = asyncio.get_running_loop()
    conns = []
    for _ in range(count):
        _, conn = await loop.create_connection(Connection, host, port)
        conns.append(conn)
    return conns


async def close(conns: list[Connection]) -> None:
    """Close every connection and wait until each has shut down."""
    for conn in conns:
        conn.transport.close()
    while not all(c.closed for c in conns):
        await asyncio.sleep(0.001)


async def drain(conns: list[Connection]) -> None:
    """Wait until no reply is outstanding, a connection drops or time's up."""
    deadline = time.perf_counter() + DRAIN_S
    while any(c.inflight and not c.closed for c in conns):
        if time.perf_counter() > deadline:
            return
        await asyncio.sleep(0.005)


async def closed_loop(conns: list[Connection], queries: Queries, name: str,
                      duration: float, depth: int) -> Phase:
    """Each connection keeps ``depth`` requests outstanding for ``duration``."""
    phase = Phase(name)
    phase.start = time.perf_counter()
    stop_at = phase.start + duration

    def refill(conn: Connection, replies: int) -> None:
        if time.perf_counter() < stop_at:
            conn.send(phase, queries, replies)

    for conn in conns:
        conn.on_reply = refill
        conn.send(phase, queries, depth)
    await asyncio.sleep(duration)
    await drain(conns)
    for conn in conns:
        conn.on_reply = None
    return phase


async def open_loop(conns: list[Connection], queries: Queries, name: str,
                    offsets: np.ndarray) -> Phase:
    """Send request ``i`` at ``offsets[i]``, round-robin over ``conns``."""
    phase = Phase(name)
    phase.start = time.perf_counter()
    due_at = (phase.start + offsets).tolist()
    i, total = 0, len(due_at)
    while i < total:
        delay = due_at[i] - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        now = time.perf_counter()
        while i < total and due_at[i] <= now:
            conns[i % len(conns)].send(phase, queries, 1, due=due_at[i])
            i += 1
    await drain(conns)
    return phase
