"""How fast the host runs right now, from a fixed reference kernel.

The machines this benchmark runs on share their processors and memory
with other work, and the same code runs up to ~1.9x slower for stretches
of seconds to tens of minutes.  A whole run, or a whole set of runs, can
fall inside such a stretch, so medians over a run cannot remove it.  A
batch operation's wall is therefore scaled by the host speed measured
right around it (around each of its stages, when it lasts longer than
the host holds a speed)::

    scaled = wall * REF_MS / ref

``ref`` is the reference kernel's time just before and just after the
operation or stage, averaged; ``REF_MS`` is the kernel's time on the machine the
bounds were set on, in a quiet stretch, so a scaled time reads as the
wall that machine would have measured quiet.  The kernel imports nothing
from the program, so no change to the program moves it.

The kernel is a pure-Python loop (interpreter speed on this core) plus a
random gather from a 32 MB array (memory latency), in the proportion
that tracked both batch workloads through the slow stretches measured on
a 2-vCPU host:

======================================  ========  =========  ===========
median over a stretch, vs. quiet        raw wall  loop only  this kernel
======================================  ========  =========  ===========
``epoch-4k`` transition, 80 s stretch   1.60x     1.06x      1.05x
``epoch-4k`` transition, 4 min stretch  1.91x     1.22x      1.03x
``static-1m`` pass, 3 min stretch       1.72x     1.23x      0.99x
======================================  ========  =========  ===========

The array lives only for the call; a caller that reports its peak
resident set leaves the call out (``batch.Peak``).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_MS = 1.1            # the kernel on the reference machine, quiet
REPEATS = 9
_LOOP = 20_000
_ARRAY = 4_000_000      # float64: 32 MB, beyond the caches
_GATHER = 24_000
_INDEX = np.random.default_rng(0).integers(0, _ARRAY, _GATHER)


def _kernel(array: np.ndarray) -> float:
    acc = 0.0
    for i in range(_LOOP):
        acc += i * 0.5
    return acc + float(array[_INDEX].sum())


def reference_ms() -> float:
    """Median time of the reference kernel now, in milliseconds."""
    array = np.ones(_ARRAY)     # written, so every page is really mapped
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel(array)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def scale(walls: list[float], refs: list[float]) -> list[float]:
    """Walls scaled to reference speed; ``refs`` brackets every wall.

    ``refs[i]`` is measured just before ``walls[i]`` and ``refs[i + 1]``
    just after it.
    """
    if len(refs) != len(walls) + 1:
        raise ValueError(f"{len(walls)} walls need {len(walls) + 1} refs, "
                         f"got {len(refs)}")
    return [w * REF_MS * 2.0 / (a + b)
            for w, a, b in zip(walls, refs, refs[1:])]
