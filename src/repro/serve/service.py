"""The asyncio request layer over a live, churning epoch simulator.

:class:`RoutingService` listens on TCP and speaks JSON lines — one
request object in, one response line out, any number of requests per
connection, answered in order:

* ``{"op": "query", "source": S, "target": T}`` — answer a secure-routing
  query from the **current** epoch snapshot; the response line is exactly
  :func:`~repro.serve.snapshot.canonical_response` of the answer (no
  extra envelope — the offline oracle byte-compares these lines);
* ``{"op": "status"}`` — epoch/population/traffic counters (the load
  generator bootstraps its query domain from ``n`` here);
* ``{"op": "stop"}`` — acknowledge, then shut the service down.

A malformed request gets ``{"error": "bad request: ..."}``; a line longer
than the stream reader's limit (asyncio's 64 KiB default) gets the same
answer and then its connection is closed, since the rest of that line
is still unread.

Epochs advance concurrently: a background task sleeps
``epoch_period_s``, runs ``sim.step()`` **plus** the snapshot build in a
worker thread (``run_in_executor`` — the event loop keeps serving the
old epoch meanwhile), and publishes the new
:class:`~repro.serve.snapshot.EpochSnapshot` by plain reference
assignment back on the loop.  Each query reads ``self.snapshot`` exactly
once, so it is answered wholly from one epoch even if a publish lands
mid-request.

Telemetry: one ``serve.request`` per query (server-side latency from
request-line read to response drained, the answering epoch, and the
outcome — delivered/corrupted/unresolved/error) and one ``span`` of
phase ``serve.publish`` per epoch swap (step + snapshot-build wall, and
the new epoch).  Events go to the writer passed in, else the
process-default sink (``$REPRO_TELEMETRY``).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time

from .config import ServeConfig, make_simulator
from .snapshot import EpochSnapshot, build_snapshot, canonical_response

__all__ = ["RoutingService"]


class RoutingService:
    """Serve secure-routing queries while the simulator's epochs advance."""

    def __init__(
        self,
        config: ServeConfig,
        host: str = "127.0.0.1",
        port: int = 0,
        telemetry=None,
    ):
        self.config = config
        self.host = host
        self.port = port
        self.telemetry = telemetry
        self.sim = make_simulator(config)
        # epoch 0 is queryable before the first transition publishes
        self.snapshot: EpochSnapshot = build_snapshot(
            self.sim.pair, config.params, epoch=0
        )
        self.requests = 0
        self.published = 0
        self.bound_host: str | None = None
        self.bound_port: int | None = None
        self._stop: asyncio.Event | None = None

    # -- telemetry ---------------------------------------------------------

    def _emit(self, type: str, **fields) -> None:
        if self.telemetry is not None:
            self.telemetry.emit(type, **fields)
        else:
            from ..telemetry import emit_default

            emit_default(type, **fields)

    # -- epoch advancement -------------------------------------------------

    def _step_and_build(self) -> EpochSnapshot:
        """Worker-thread body: one transition + the next epoch's snapshot.

        Runs off the event loop; the loop keeps answering from the old
        snapshot (the step mutates only the simulator's own pair, never
        a published snapshot's copied state).
        """
        self.sim.step()
        return build_snapshot(self.sim.pair, self.config.params, self.sim.epoch)

    async def _advance_epochs(self) -> None:
        from ..telemetry import span  # lazy: keep the serve import-light

        loop = asyncio.get_running_loop()
        for _ in range(self.config.epochs):
            await asyncio.sleep(self.config.epoch_period_s)
            # the step advances sim.epoch by one; that is the new snapshot's
            with span("serve.publish", sink=self.telemetry,
                      epoch=self.sim.epoch + 1):
                snap = await loop.run_in_executor(None, self._step_and_build)
                self.snapshot = snap  # atomic publication: old epoch or new, whole
                self.published += 1

    # -- request handling --------------------------------------------------

    def _dispatch(self, line: bytes) -> tuple[str, str | None, int]:
        """One request line -> (response line, telemetry outcome, epoch).

        Outcome ``None`` marks control ops (status) that do not count as
        query traffic; ``"stop"`` additionally shuts the service down.
        """
        snap = self.snapshot
        try:
            req = json.loads(line)
            if not isinstance(req, dict):
                raise ValueError("request must be a JSON object")
        except (ValueError, RecursionError) as exc:
            # RecursionError: nesting past the interpreter's recursion
            # limit, which a line well under the reader's limit can reach
            return (
                json.dumps({"error": f"bad request: {exc}"}), "error", snap.epoch
            )
        op = req.get("op", "query")
        if op == "status":
            return (
                json.dumps({
                    "op": "status",
                    "n": snap.n,
                    "epoch": snap.epoch,
                    "epochs": self.config.epochs,
                    "published": self.published,
                    "requests": self.requests,
                }, sort_keys=True),
                None,
                snap.epoch,
            )
        if op == "stop":
            return json.dumps({"ok": True, "op": "stop"}), "stop", snap.epoch
        if op != "query":
            return (
                json.dumps({"error": f"unknown op {op!r}"}), "error", snap.epoch
            )
        try:
            answer = snap.answer(req.get("source"), req.get("target"))
        except ValueError as exc:
            return json.dumps({"error": str(exc)}), "error", snap.epoch
        return canonical_response(answer), snap.outcome_of(answer), snap.epoch

    async def _reply(
        self,
        writer: asyncio.StreamWriter,
        t0: float,
        reply: tuple[str, str | None, int],
    ) -> None:
        """Send one response line; query traffic (everything but status
        and stop) is counted and emits ``serve.request``."""
        response, outcome, epoch = reply
        writer.write(response.encode("utf-8") + b"\n")
        await writer.drain()
        if outcome is not None and outcome != "stop":
            self.requests += 1
            self._emit(
                "serve.request",
                latency_s=round(time.perf_counter() - t0, 6),
                epoch=epoch,
                outcome=outcome,
            )

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError as exc:
                    # the line outgrew the reader's limit and its tail may
                    # still be unread: answer it, then close rather than
                    # parse from the middle of a request
                    error = json.dumps({"error": f"bad request: {exc}"})
                    await self._reply(
                        writer, time.perf_counter(),
                        (error, "error", self.snapshot.epoch),
                    )
                    break
                if not line:
                    break
                t0 = time.perf_counter()
                reply = self._dispatch(line)
                await self._reply(writer, t0, reply)
                if reply[1] == "stop" and self._stop is not None:
                    self._stop.set()
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # a client vanishing mid-request is its problem, not ours
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    # -- lifecycle ---------------------------------------------------------

    async def run(self, ready: asyncio.Event | None = None) -> None:
        """Serve until a stop op arrives; sets ``ready`` once listening.

        The epoch task keeps publishing on schedule whether or not
        traffic arrives; after the last configured epoch the service
        keeps answering from the final snapshot until told to stop.
        """
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        sockname = server.sockets[0].getsockname()
        self.bound_host, self.bound_port = sockname[0], int(sockname[1])
        epoch_task = asyncio.create_task(self._advance_epochs())
        if ready is not None:
            ready.set()
        try:
            await self._stop.wait()
        finally:
            epoch_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await epoch_task
            server.close()
            await server.wait_closed()
