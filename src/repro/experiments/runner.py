"""Experiment registry and batch runner.

``run_experiment("E4")`` runs one experiment; ``run_all()`` runs the full
suite (or a subset) in ID order.  Each experiment module exposes
one entry point, ``build_spec(seed=..., fast=..., **overrides) ->
SweepSpec`` — the declarative grid (axes + per-cell function) the sweep
substrate executes — and :data:`SPEC_BUILDERS` maps each experiment ID to
it.

Dispatch goes through the spec: the runner validates overrides against the
target experiment's ``build_spec`` signature up front (so a typo'd
parameter raises a ``TypeError`` naming the experiment instead of an
opaque traceback from deep inside the module), builds the spec, and hands
it to the sweep substrate's ``run_sweep`` (:mod:`repro.sim.sweep`).

Execution: pass an :class:`repro.sim.ExecutionConfig` (surfaced on the CLI
as ``--backend``/``--workers``) to select how sweep cells — and E12's
churn cases — execute.  ``run_all`` runs its experiments one after
another and forwards the config into each sweep, so under the
``process`` backend each multi-cell sweep splits across the warm pool;
tables are identical to the in-process path.

Caching: ``cache=True`` consults the on-disk result cache
(:mod:`repro.experiments.cache`, default ``benchmarks/output/cache/``)
keyed by ``(experiment, seed, fast, overrides, version)`` before running
anything, and stores the finished table after a miss; ``force=True``
recomputes and overwrites.  Surfaced on the CLI as
``--cache/--no-cache/--force``.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, Sequence

from ..analysis.tables import TableResult
from ..sim.montecarlo import ExecutionConfig
from ..sim.sweep import SweepSpec, run_sweep
from .cache import ResultCache
from . import (
    e1_responsibility,
    e2_static_search,
    e3_group_quality,
    e4_dynamic_epochs,
    e5_two_graph_ablation,
    e6_costs,
    e7_state,
    e8_pow,
    e9_strings,
    e10_precompute,
    e11_size_limits,
    e12_cuckoo,
    e13_quarantine,
    e14_storage,
    e15_size_drift,
)

__all__ = [
    "SPEC_BUILDERS",
    "run_all",
    "run_experiment",
    "validate_overrides",
]

_MODULES = {
    "E1": e1_responsibility,
    "E2": e2_static_search,
    "E3": e3_group_quality,
    "E4": e4_dynamic_epochs,
    "E5": e5_two_graph_ablation,
    "E6": e6_costs,
    "E7": e7_state,
    "E8": e8_pow,
    "E9": e9_strings,
    "E10": e10_precompute,
    "E11": e11_size_limits,
    "E12": e12_cuckoo,
    "E13": e13_quarantine,
    "E14": e14_storage,
    "E15": e15_size_drift,
}

# the one registry: every dispatch surface and the CLI listing read it
SPEC_BUILDERS: Dict[str, Callable[..., SweepSpec]] = {
    name: mod.build_spec for name, mod in _MODULES.items()
}


def _validate_overrides(name: str, builder: Callable[..., SweepSpec], overrides: dict) -> None:
    """Reject overrides the experiment's spec builder does not accept."""
    params = inspect.signature(builder).parameters
    accepts_var_kw = any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    )
    if accepts_var_kw:
        return
    valid = [
        pname for pname, p in params.items()
        if p.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD,
                      inspect.Parameter.KEYWORD_ONLY)
        and pname not in ("seed", "fast")
    ]
    # seed/fast are run_experiment parameters, not overrides: passing them
    # here would collide with the explicit keywords far from the call site
    unknown = sorted(set(overrides) - (set(params) - {"seed", "fast"}))
    if unknown:
        raise TypeError(
            f"experiment {name} got unknown override(s) {unknown}; "
            f"valid overrides: {sorted(valid)}"
        )


def validate_overrides(
    name: str,
    overrides: dict,
    registry: Dict[str, Callable[..., SweepSpec]] | None = None,
) -> Callable[..., SweepSpec]:
    """Resolve an experiment's spec builder and vet overrides against it.

    The shared front door for every dispatch surface — ``run_experiment``,
    ``run_all``, and the sharded dispatcher's ``serve`` role — so a typo'd
    override fails here, with the experiment named, rather than inside a
    worker process three hops away.  Returns the builder.
    """
    registry = SPEC_BUILDERS if registry is None else registry
    key = name.upper()
    try:
        builder = registry[key]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; choose from {sorted(registry)}"
        ) from None
    _validate_overrides(key, builder, overrides)
    return builder


def run_experiment(
    name: str,
    seed: int = 0,
    fast: bool = True,
    exec_config: ExecutionConfig | None = None,
    cache: bool = False,
    force: bool = False,
    cache_dir: str | None = None,
    **overrides,
) -> TableResult:
    """Run one experiment by ID (e.g. "E4"), via its sweep spec.

    With ``cache=True`` a stored table for the same
    ``(experiment, seed, fast, overrides, version)`` key is returned
    without executing a single cell (valid at any backend/worker count —
    the sweep substrate's tables are bit-identical across them);
    ``force=True`` recomputes and refreshes the stored entry.
    """
    key = name.upper()
    builder = validate_overrides(key, overrides)
    store = ResultCache(cache_dir) if (cache or force) else None
    if store is not None and not force:
        hit = store.load(key, seed, fast, overrides)
        if hit is not None:
            return hit
    spec = builder(seed=seed, fast=fast, **overrides)
    table = run_sweep(spec, exec_config=exec_config)
    if store is not None:
        store.store(key, seed, fast, overrides, table)
    return table


def run_all(
    seed: int = 0,
    fast: bool = True,
    exec_config: ExecutionConfig | None = None,
    cache: bool = False,
    force: bool = False,
    cache_dir: str | None = None,
    names: Sequence[str] | None = None,
    overrides: Dict[str, dict] | None = None,
) -> Dict[str, TableResult]:
    """Run the suite (default: all experiments) in ID order.

    Experiments run one after another, each through
    :func:`run_experiment` with ``exec_config`` forwarded into its sweep
    (under the ``process`` backend, multi-cell sweeps split across the
    warm pool).  With ``cache=True`` only experiments whose key
    ``(name, seed, fast, overrides, version)`` is absent from the result
    cache are re-executed.  ``names`` restricts the suite to a subset;
    ``overrides`` maps experiment IDs to per-experiment override dicts
    (both participate in the cache key).
    """
    # normalize override keys the same way experiment names are normalized,
    # so overrides={"e1": ...} applies to (and cache-keys) "E1"
    overrides = {k.upper(): dict(v) for k, v in (overrides or {}).items()}
    if names is None:
        order = sorted(SPEC_BUILDERS, key=lambda k: int(k[1:]))
    else:
        order = [n.upper() for n in names]
        for n in order:
            if n not in SPEC_BUILDERS:
                raise ValueError(
                    f"unknown experiment {n!r}; choose from {sorted(SPEC_BUILDERS)}"
                )
    # validate everything before anything runs: override entries for
    # experiments outside the run would be silently dead, and seed/fast
    # smuggled through the mapping would surface as a duplicate-keyword
    # crash after earlier experiments had already run
    stray = sorted(set(overrides) - set(order))
    if stray:
        raise ValueError(
            f"overrides given for experiment(s) {stray} not in this run "
            f"(running {order})"
        )
    for n in order:
        _validate_overrides(n, SPEC_BUILDERS[n], overrides.get(n, {}))
    return {
        name: run_experiment(
            name, seed=seed, fast=fast, exec_config=exec_config,
            cache=cache, force=force, cache_dir=cache_dir,
            **overrides.get(name, {}),
        )
        for name in order
    }
