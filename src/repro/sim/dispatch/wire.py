"""Wire format for sharded sweep execution: self-contained work units.

A sweep cell is already an addressable ``(experiment, seed, grid index)``
point (``SweepSpec.cells()`` + coordinate-keyed seed sequences); this
module serializes that address into a :class:`WorkUnit` a worker in
another process — or on another machine — can execute with nothing but
the unit JSON and the experiment registry:

* the unit carries the *request* (experiment, seed, fast, overrides,
  grid index), never the spec object: the worker rebuilds the
  spec through ``build_spec`` exactly as the local runner does, so the
  cell function, its context, and its RNG stream are re-derived, not
  shipped as pickled state;
* every unit and result echoes the sweep's **fingerprint** — the result
  cache's content address ``cache_key(experiment, seed, fast, overrides,
  version)`` — so results from a different sweep generation (an old
  seed, a force-invalidated run, a previous package version) are
  *detectably stale* and rejected instead of silently assembled;
* every result carries a SHA-256 **payload hash** over its canonical
  payload JSON, so a payload corrupted in transit (or by a Byzantine
  worker tampering after hashing) is *detectably corrupt* — the
  reassembler recomputes the hash and rejects mismatches, and the unit
  is simply retried.

What the codec deliberately cannot detect: a worker that executes the
wrong computation and hashes its wrong answer consistently, under the
correct fingerprint.  Defending against that is the quorum layer's job:
with ``replicas=r`` each unit is leased as r *replica slots* (``replica``
on the unit names the slot, ``attempt`` counts its leases) and the
reassembler accepts the majority payload hash across distinct workers —
see :mod:`repro.sim.dispatch.reassemble`.  Both fields are transport
bookkeeping, not sweep identity: they never enter the fingerprint, and
absent fields decode to the r=1 defaults so pre-quorum spools stay
readable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Mapping

from ..montecarlo import resolve_kernel
from ..sweep import CellResult, SweepSpec, _run_cell, count_cells_executed

__all__ = [
    "DispatchError",
    "IncompleteSweepError",
    "PayloadConflictError",
    "WorkResult",
    "WorkUnit",
    "execute_unit",
    "payload_hash",
    "spec_for_request",
    "sweep_fingerprint",
    "units_for_request",
]


class DispatchError(RuntimeError):
    """A dispatch invariant was violated (malformed unit, bad registry...)."""


class PayloadConflictError(DispatchError):
    """Two hash-consistent results for the same grid index disagree.

    Cells are deterministic functions of their coordinate-keyed streams,
    so honest re-executions always reproduce the first accepted payload
    bit-for-bit; a divergent-but-self-consistent duplicate means a worker
    computed (and correctly hashed) a *wrong* answer — beyond what
    retry can repair, so it is surfaced loudly instead of resolved
    silently.
    """


class IncompleteSweepError(DispatchError):
    """A table was requested while grid indexes are still missing."""


def _canonical_json(value: object) -> str:
    """Canonical JSON: sorted keys, no whitespace variance — the byte
    stream both the payload hash and duplicate detection are defined
    over."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _jsonable(value: object) -> object:
    """Coerce a payload value to a JSON-native type with identical ``str()``.

    Mirrors ``TableResult``'s JSON coercion (numpy scalars become their
    Python values) so a table assembled from wire payloads serializes and
    renders byte-identically to the locally-computed one.
    """
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(value[k]) for k in sorted(value, key=str)}
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    raise TypeError(
        f"payload value {value!r} ({type(value).__name__}) is not "
        "JSON-serializable; cells executed through the dispatcher must "
        "return JSON-native rows/notes/aux"
    )


def sweep_fingerprint(
    experiment: str, seed: int, fast: bool, overrides: Mapping
) -> str:
    """The sweep generation's identity on the wire.

    Deliberately the PR-2 result-cache key — ``(experiment, seed, fast,
    overrides, package version)``, backend and kernel excluded because
    tables are bit-identical across them — so "this result belongs to
    that sweep" and "this table is a cache hit for that request" are the
    same judgement.
    """
    from ...experiments.cache import cache_key

    return cache_key(experiment, int(seed), bool(fast), dict(overrides))


def payload_hash(payload: Mapping) -> str:
    """SHA-256 over the canonical payload JSON (full digest: the hash is
    a corruption/conflict detector, not a filename)."""
    return hashlib.sha256(_canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class WorkUnit:
    """One self-contained sweep cell, addressable on the wire.

    ``overrides`` are the ``build_spec`` keyword overrides (JSON-native:
    tuples arrive as lists, which every builder accepts and the cache key
    canonicalizes identically).  ``replica`` names the quorum slot
    this copy of the unit fills (0..r-1, plus tiebreakers) and
    ``attempt`` how many times that slot has been leased; both are
    transport state, excluded from identity and equality-irrelevant for
    the ``units/`` originals (which always carry the 0 defaults).
    """

    experiment: str
    seed: int
    fast: bool
    overrides: dict
    index: int
    n_cells: int
    fingerprint: str = ""
    replica: int = 0
    attempt: int = 0

    def unit_id(self) -> str:
        return f"{self.experiment.lower()}-{self.fingerprint}-{self.index:05d}"

    def to_json(self) -> str:
        return json.dumps(
            {
                "experiment": self.experiment,
                "seed": self.seed,
                "fast": self.fast,
                "overrides": _jsonable(dict(self.overrides)),
                "index": self.index,
                "n_cells": self.n_cells,
                "fingerprint": self.fingerprint,
                "replica": self.replica,
                "attempt": self.attempt,
            },
            sort_keys=True,
            indent=1,
        )

    @classmethod
    def from_json(cls, text: str) -> "WorkUnit":
        try:
            data = json.loads(text)
            return cls(
                experiment=str(data["experiment"]),
                seed=int(data["seed"]),
                fast=bool(data["fast"]),
                overrides=dict(data["overrides"]),
                index=int(data["index"]),
                n_cells=int(data["n_cells"]),
                fingerprint=str(data["fingerprint"]),
                # pre-quorum unit JSON has neither field: decode to the
                # r=1 defaults so existing spools stay readable
                replica=int(data.get("replica", 0)),
                attempt=int(data.get("attempt", 0)),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise DispatchError(f"malformed work unit: {exc}") from exc


@dataclass(frozen=True)
class WorkResult:
    """A completed unit: payload plus the evidence needed to accept it.

    ``payload`` is ``{"rows": [...], "notes": [...], "aux": ...}`` —
    exactly a :class:`~repro.sim.sweep.CellResult` minus the identity
    the unit already carries.  ``payload_sha256`` is the worker's claim;
    the reassembler recomputes it before believing anything else.
    ``replica``/``attempt`` echo the leased unit's slot bookkeeping so a
    rejected result can be requeued without losing its retry budget.
    """

    fingerprint: str
    index: int
    payload: dict
    payload_sha256: str
    worker: str = ""
    replica: int = 0
    attempt: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "fingerprint": self.fingerprint,
                "index": self.index,
                "payload": self.payload,
                "payload_sha256": self.payload_sha256,
                "worker": self.worker,
                "replica": self.replica,
                "attempt": self.attempt,
            },
            sort_keys=True,
            indent=1,
        )

    @classmethod
    def from_json(cls, text: str) -> "WorkResult":
        try:
            data = json.loads(text)
            return cls(
                fingerprint=str(data["fingerprint"]),
                index=int(data["index"]),
                payload=dict(data["payload"]),
                payload_sha256=str(data["payload_sha256"]),
                worker=str(data.get("worker", "")),
                replica=int(data.get("replica", 0)),
                attempt=int(data.get("attempt", 0)),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise DispatchError(f"malformed work result: {exc}") from exc

    def cell_result(self, coords: dict) -> CellResult:
        """Decode the payload into the substrate's cell-result shape."""
        return CellResult(
            index=self.index,
            coords=dict(coords),
            rows=[list(row) for row in self.payload.get("rows", [])],
            notes=tuple(self.payload.get("notes", ())),
            aux=self.payload.get("aux"),
        )


def _default_registry() -> Mapping[str, Callable[..., SweepSpec]]:
    # lazy: repro.experiments imports repro.sim.sweep; importing it at
    # module load would make dispatch unimportable from the sweep layer
    from ...experiments.runner import SPEC_BUILDERS

    return SPEC_BUILDERS


def spec_for_request(
    experiment: str,
    seed: int,
    fast: bool,
    overrides: Mapping,
    registry: Mapping[str, Callable[..., SweepSpec]] | None = None,
) -> SweepSpec:
    """Rebuild the sweep spec a unit addresses, exactly as the runner would."""
    registry = _default_registry() if registry is None else registry
    key = experiment.upper()
    try:
        builder = registry[key]
    except KeyError:
        raise DispatchError(
            f"unknown experiment {experiment!r}; registry has {sorted(registry)}"
        ) from None
    return builder(seed=int(seed), fast=bool(fast), **dict(overrides))


def units_for_request(
    experiment: str,
    seed: int,
    fast: bool,
    overrides: Mapping,
    registry: Mapping[str, Callable[..., SweepSpec]] | None = None,
) -> tuple[SweepSpec, list[WorkUnit]]:
    """Serialize a sweep request into its spec plus one unit per grid cell."""
    spec = spec_for_request(experiment, seed, fast, overrides, registry=registry)
    fingerprint = sweep_fingerprint(experiment, seed, fast, overrides)
    cells = spec.cells()
    units = [
        WorkUnit(
            experiment=experiment.upper(),
            seed=int(seed),
            fast=bool(fast),
            overrides=dict(overrides),
            index=cell.index,
            n_cells=len(cells),
            fingerprint=fingerprint,
        )
        for cell in cells
    ]
    return spec, units


def encode_payload(result: CellResult) -> dict:
    """The wire payload for a completed cell (JSON-coerced, hash-stable)."""
    return {
        "rows": [[_jsonable(c) for c in row] for row in result.rows],
        "notes": [str(n) for n in result.notes],
        "aux": _jsonable(result.aux),
    }


def execute_unit(
    unit: WorkUnit,
    registry: Mapping[str, Callable[..., SweepSpec]] | None = None,
    worker: str = "",
    spec: SweepSpec | None = None,
) -> WorkResult:
    """Run one unit from scratch: rebuild the spec, spawn the cell's
    coordinate-keyed stream, execute, and wrap the payload with its hash.

    ``spec`` short-circuits the registry rebuild when the caller already
    holds the spec (in-process workers executing many units of one sweep);
    the stream and context derivation are identical either way.
    """
    if unit.fingerprint:
        # recompute locally instead of trusting the serialized value: the
        # fingerprint includes the package version, so a worker running
        # different repro code than the serve side must refuse loudly here
        # rather than stamp wrong-version rows with a passing identity
        expected = sweep_fingerprint(
            unit.experiment, unit.seed, unit.fast, unit.overrides
        )
        if unit.fingerprint != expected:
            raise DispatchError(
                f"unit {unit.unit_id()} was serialized under fingerprint "
                f"{unit.fingerprint} but this worker derives {expected} — "
                "the package version (or override canonicalization) differs "
                "between serve and work; upgrade the worker or re-serve"
            )
    if spec is None:
        spec = spec_for_request(
            unit.experiment, unit.seed, unit.fast, unit.overrides,
            registry=registry,
        )
    cells = spec.cells()
    if not 0 <= unit.index < len(cells):
        raise DispatchError(
            f"unit index {unit.index} outside the {len(cells)}-cell grid "
            f"of {unit.experiment}"
        )
    cell = cells[unit.index]
    context = dict(spec.context)
    if spec.pass_exec_config:
        # dispatch workers are leaves: no nested pools (same rule as the
        # sweep substrate's process backend)
        context["exec_config"] = None
    if spec.pass_kernel:
        # the kernel run_sweep resolves with no config: kernels are
        # byte-identical, so the unit needs no hint of its own
        context["kernel"] = resolve_kernel(None)
    count_cells_executed()
    out = _run_cell(spec.cell, cell, spec.seed_sequence_for(cell), context)
    payload = encode_payload(out)
    return WorkResult(
        fingerprint=unit.fingerprint,
        index=unit.index,
        payload=payload,
        payload_sha256=payload_hash(payload),
        worker=worker,
        replica=unit.replica,
        attempt=unit.attempt,
    )
