"""repro.serve — the async secure-routing query service (ROADMAP item 4).

The serving layer turns the reproduction from "experiment harness" into
"system under test": a TCP request layer (:mod:`~repro.serve.service`)
answers secure-routing queries against a live
:class:`~repro.core.dynamic.EpochSimulator` whose epochs advance
*concurrently* under a configurable churn model, while a load generator
(:mod:`~repro.serve.load`) drives open- or closed-loop traffic at it and
every request lands in the telemetry stream as a ``serve.request`` event
(latency, epoch, outcome).

Correctness story — snapshot consistency by copy-on-publish
(:mod:`~repro.serve.snapshot`): each epoch transition is stepped in a
worker thread, an immutable :class:`~repro.serve.snapshot.EpochSnapshot`
is built from the freshly minted pair (red mask copied; nothing per group
is precomputed), and publication is a single reference assignment on the
event loop.  A query therefore always sees a complete epoch — never a
half-built one — and because queries draw nothing from the simulator's
RNG, an offline replay (:mod:`~repro.serve.oracle`) of the same
:class:`~repro.serve.config.ServeConfig` recomputes every response
**byte-identically**.  ``tools/smoke_serve.py`` enforces exactly that in
CI.
"""

from .config import ServeConfig, make_simulator
from .load import LoadReport, run_load, send_stop
from .oracle import replay_snapshots, verify_responses
from .service import RoutingService
from .snapshot import EpochSnapshot, build_snapshot, canonical_response

__all__ = [
    "EpochSnapshot",
    "LoadReport",
    "RoutingService",
    "ServeConfig",
    "build_snapshot",
    "canonical_response",
    "make_simulator",
    "replay_snapshots",
    "run_load",
    "send_stop",
    "verify_responses",
]
