"""Child process for the batch workloads: ``epoch-4k`` and ``static-1m``.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python benchmarks/e2e/batch.py WORKLOAD SEED SECONDS TRACE [COUNT]

The child imports the program and builds its initial state, prints
``{"ready": true}`` and waits for one line on stdin.  ``run`` measures
and prints one JSON result line; anything else exits, which is how the
runner times set-up on spawns it then discards.  With ``COUNT`` the child
runs exactly that many timed operations instead of filling ``SECONDS``,
so a traced run repeats the trajectory of the untraced run it is
compared with.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import hostspeed

EPOCH_N = 4096
STATIC_N = 2**20
STATIC_PROBES = 100_000
STATIC_CHUNK = 16_384
STATIC_PF = 0.02


class EpochWorkload:
    """Epoch transitions of the serve-shaped simulator at n = 4096."""

    def __init__(self, seed: int):
        import repro.serve as serve

        self.serve = serve
        self.config = serve.ServeConfig(
            n=EPOCH_N, churn_rate=0.05, probes=500, seed=seed
        )
        self.sim = serve.make_simulator(self.config)

    def warm_up(self) -> list[str]:
        """One transition, replayed on a twin simulator: they must agree."""
        twin = self.serve.make_simulator(self.config)
        twin.step()
        expected = _epoch_digest(twin)
        del twin
        return [] if self.op() == expected else [
            "epoch 1 differs between two simulators built from one seed"
        ]

    def check(self, digests: list[str]) -> list[str]:
        return []  # successive epochs differ; warm_up checked determinism

    def op(self, lap=lambda: None) -> str:
        """One transition: ``step()`` then the snapshot a publish builds."""
        self.sim.step()
        # looked up through the package at call time, so a tracer sees it
        self.serve.build_snapshot(
            self.sim.pair, self.config.params, self.sim.epoch
        )
        return _epoch_digest(self.sim)


def _epoch_digest(sim) -> str:
    report = sim.history[-1]
    h = hashlib.sha256()
    h.update(sim.pair.red1.tobytes())
    h.update(sim.pair.red2.tobytes())
    h.update(
        f"{report.build_1.searches_routed},{report.build_2.searches_routed}"
        .encode()
    )
    return h.hexdigest()[:16]


class StaticWorkload:
    """The E2-shaped static pipeline at n = 2^20, rebuilt every pass."""

    def __init__(self, seed: int):
        import numpy as np

        import repro.core.groups as groups
        import repro.core.static_case as static_case
        import repro.inputgraph as inputgraph
        from repro.core.group_graph import GroupGraph
        from repro.core.params import SystemParams

        self.np, self.seed = np, seed
        self.groups, self.static_case = groups, static_case
        self.inputgraph = inputgraph
        self.GroupGraph, self.params = GroupGraph, SystemParams(
            n=STATIC_N, seed=seed
        )

    def warm_up(self) -> list[str]:
        self.first = self.op()
        return []

    def check(self, digests: list[str]) -> list[str]:
        """Every pass rebuilds from the same seed, so all must agree."""
        return [f"pass {i} gave {d}, the warm-up pass gave {self.first}"
                for i, d in enumerate(digests) if d != self.first]

    def op(self, lap=lambda: None) -> str:
        """One pass: chord graph, hashed groups, 100k chunked probes.

        ``lap()`` marks the stage boundaries, where the host speed is
        taken: a pass lasts seconds, longer than the host holds a speed.
        """
        np = self.np
        # the recipe of bench_scale.run_point: ids keyed by the seed alone
        rng = np.random.default_rng(self.seed)
        ids = np.random.default_rng(self.seed).random(STATIC_N)
        H = self.inputgraph.make_input_graph("chord", ids, index_dtype="auto")
        lap()
        gs = self.groups.build_groups_fast(H.ring, self.params, rng)
        lap()
        gg = self.GroupGraph(
            H, self.params, red=rng.random(STATIC_N) < STATIC_PF, groups=gs
        )
        stats = self.static_case.measure_static_search(
            gg, STATIC_PROBES, rng, probe_chunk=STATIC_CHUNK
        )
        if not 0.0 < stats.failure_rate < 1.0:
            raise RuntimeError(f"implausible X = {stats.failure_rate}")
        return (f"X={stats.failure_rate!r} len={stats.mean_search_path_len!r} "
                f"rho={stats.max_responsibility!r}")


WORKLOADS = {"epoch-4k": (EpochWorkload, "transition"),
             "static-1m": (StaticWorkload, "pass")}


def hwm_mb(pid: int | str = "self") -> float:
    """A process's resident-set high-water mark, in MB.

    Unlike ``ru_maxrss`` from ``wait4``, it is the process's own: a child
    started with ``vfork`` + ``exec`` inherits its parent's ``ru_maxrss``.
    """
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


class Peak:
    """The peak resident set of the workload, leaving out the reference
    kernel's array, which would otherwise set the mark whenever the
    workload's own peak is lower.

    :meth:`reference_ms` reads the mark before each kernel call and
    resets it to the current resident set after (``/proc/self/clear_refs``).
    """

    def __init__(self):
        self.peak_mb = 0.0

    def reference_ms(self) -> float:
        self.peak_mb = max(self.peak_mb, hwm_mb())
        ms = hostspeed.reference_ms()
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
        return ms

    def mb(self) -> float:
        return max(self.peak_mb, hwm_mb())


class Stopwatch:
    """Times operations in segments, each bracketed by the host speed.

    The reference kernel runs before the first segment and after every
    one, outside the timed walls; an operation's scaled time is the sum
    of its segments' scaled walls (:func:`hostspeed.scale`).
    """

    def __init__(self, tracer=None):
        self.peak, self.tracer = Peak(), tracer
        self.refs = [self.peak.reference_ms()]

    def start(self) -> None:
        self._segments: list[float] = []
        self._first = len(self.refs) - 1
        self._t0 = time.perf_counter()

    def lap(self) -> None:
        self._segments.append(time.perf_counter() - self._t0)
        if self.tracer is None:
            self.refs.append(self.peak.reference_ms())
        else:   # its own span, so it is not counted as the root's glue
            with self.tracer.span("hostspeed"):
                self.refs.append(self.peak.reference_ms())
        self._t0 = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """``(wall, scaled wall)`` of the operation just timed."""
        self._segments.append(time.perf_counter() - self._t0)
        self.refs.append(self.peak.reference_ms())
        scaled = hostspeed.scale(self._segments, self.refs[self._first:])
        return sum(self._segments), sum(scaled)


def measure(workload, root: str, seconds: float, count: int | None,
            tracer) -> dict:
    """Timed operations until ``seconds`` pass (or ``count`` are done)."""
    watch = Stopwatch(tracer)
    walls, scaled, digests = [], [], []
    start = time.perf_counter()
    while (len(walls) < count) if count else (
        not walls or time.perf_counter() - start < seconds
    ):
        watch.start()
        if tracer is None:
            digests.append(workload.op(watch.lap))
        else:
            with tracer.span(root):
                digests.append(workload.op(watch.lap))
        wall, wall_scaled = watch.stop()
        walls.append(wall)
        scaled.append(wall_scaled)
    return {"walls": walls, "scaled": scaled, "refs": watch.refs,
            "digests": digests, "peak_rss_mb": watch.peak.mb()}


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3]
    count = int(argv[4]) if len(argv) > 4 else None
    cls, root = WORKLOADS[name]
    workload = cls(seed)
    print(json.dumps({"ready": True}), flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0
    problems = workload.warm_up()
    tracer = None
    if trace == "1":
        from layers import TRACE_MAPS
        from spans import Tracer

        tracer = Tracer()
        tracer.install(TRACE_MAPS[name])
    result = measure(workload, root, seconds, count, tracer)
    result["problems"] = problems + workload.check(result["digests"])
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
