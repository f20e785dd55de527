"""Per-claim experiment harness, E1-E15 (claim map: EXPERIMENTS.md).

Each experiment module declares its grid as a
:class:`~repro.sim.sweep.SweepSpec` (``build_spec``), registered in
``SPEC_BUILDERS``; the runner dispatches, validates overrides, and
consults the on-disk result cache (:mod:`repro.experiments.cache`).
"""

from .cache import CacheEntry, ResultCache
from .runner import SPEC_BUILDERS, run_all, run_experiment

__all__ = [
    "CacheEntry",
    "ResultCache",
    "SPEC_BUILDERS",
    "run_all",
    "run_experiment",
]
