"""Per-claim experiment harness, E1-E15 (claim map: EXPERIMENTS.md).

Each experiment module declares its grid as a
:class:`~repro.sim.sweep.SweepSpec` (``build_spec``) and keeps a ``run``
convenience wrapper; the runner dispatches, validates overrides, and
consults the on-disk result cache (:mod:`repro.experiments.cache`).
"""

from .cache import CacheEntry, ResultCache
from .runner import EXPERIMENTS, SPEC_BUILDERS, run_all, run_experiment

__all__ = [
    "CacheEntry",
    "EXPERIMENTS",
    "ResultCache",
    "SPEC_BUILDERS",
    "run_all",
    "run_experiment",
]
