"""The static case (paper §II): no churn, red groups fixed.

Two ways to obtain a red marking:

* the **S2 synthetic model** — every group is red independently with
  probability ``p_f <= 1/log^k n``; Lemmas 1-4 are proved against this
  model, so experiments E1/E2 evaluate it directly;
* the **constructive model** — actually build every ``G_w`` by hashing and
  classify it from its member composition (§I-C); used by E3 to show the
  realized bad-group probability matches the Chernoff prediction that
  justifies S2.

The module's result types capture exactly the quantities named in the
lemmas: responsibility ``rho(G_v)`` (Lemma 1), the failure probability ``X``
(Lemmas 2-3), and the success bound (Lemma 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..idspace.hashing import RandomOracle
from ..idspace.ring import Ring
from ..inputgraph.base import InputGraph
from .group_graph import GroupGraph
from .groups import GroupQuality, GroupSet, build_groups, build_groups_fast, classify_groups
from .params import SystemParams
from .secure_routing import SecureRouter

__all__ = [
    "StaticSearchStats",
    "synthetic_static_graph",
    "constructive_static_graph",
    "measure_static_search",
    "measure_static_search_routed",
    "measure_static_search_streamed",
    "measure_responsibility_bound",
]


def _finish_stats(
    gg: GroupGraph,
    probes: int,
    resp_constant: float,
    failure_rate: float,
    mean_path_len: float,
    max_responsibility: float,
) -> StaticSearchStats:
    """Assemble the stats record from the three measured reductions."""
    n = gg.n
    c = gg.H.congestion_exponent
    log_n = np.log(max(np.e, n))
    rho_bound = resp_constant * (log_n**c) / n
    pf = gg.fraction_red
    return StaticSearchStats(
        n=n,
        pf=pf,
        probes=probes,
        failure_rate=float(failure_rate),
        mean_search_path_len=float(mean_path_len),
        max_responsibility=float(max_responsibility),
        responsibility_bound=float(rho_bound),
        x_upper_pred=float(min(1.0, pf * resp_constant * (log_n**c))),
    )


@dataclass(frozen=True)
class StaticSearchStats:
    """Measured static-case search statistics (Lemmas 1-4)."""

    n: int
    pf: float                  # realized red-group fraction
    probes: int
    failure_rate: float        # X-hat
    mean_search_path_len: float
    max_responsibility: float  # max-hat rho(G_v)
    responsibility_bound: float  # paper bound const * log^c n / n
    x_upper_pred: float        # Lemma 2: O(pf log^c n)

    @property
    def success_rate(self) -> float:
        return 1.0 - self.failure_rate


def synthetic_static_graph(
    H: InputGraph, params: SystemParams, pf: float, rng: np.random.Generator
) -> GroupGraph:
    """S2 group graph: red i.i.d. with probability ``pf``."""
    return GroupGraph.with_synthetic_red(H, params, pf, rng)


def constructive_static_graph(
    H: InputGraph,
    params: SystemParams,
    bad_mask: np.ndarray,
    rng: np.random.Generator | None = None,
    oracle: RandomOracle | None = None,
    kernel: str = "vectorized",
) -> tuple[GroupGraph, GroupSet, GroupQuality]:
    """Build all groups by hashing and mark red from composition (§I-C).

    Pass ``oracle`` for the exact verifiable construction or ``rng`` for the
    fast Monte-Carlo equivalent (distribution-identical; see
    ``groups.build_groups_fast``).  In the static case neighbor sets are
    assumed correct (the paper's §II premise), so red == bad composition.
    ``kernel`` selects the group-construction kernel (byte-identical CSR
    either way; ``"serial"`` is the per-leader reference loop).
    """
    if oracle is not None:
        gs = build_groups(H.ring, params, oracle, kernel=kernel)
    else:
        if rng is None:
            raise ValueError("need either oracle or rng")
        gs = build_groups_fast(H.ring, params, rng, kernel=kernel)
    quality = classify_groups(gs, bad_mask, params)
    gg = GroupGraph(H, params, red=quality.is_bad.copy(), groups=gs)
    return gg, gs, quality


def measure_static_search(
    gg: GroupGraph, probes: int, rng: np.random.Generator,
    resp_constant: float = 8.0,
    kernel: str = "vectorized",
    probe_chunk: int | None = None,
) -> StaticSearchStats:
    """Measure ``X`` and ``rho`` on a marked group graph.

    ``resp_constant`` is the hidden constant in Lemma 1's
    ``rho(G_v) = O(log^c n / n)`` against which the max responsibility is
    reported.

    Execution is a :class:`~repro.core.secure_routing.SecureRouter` pass
    over all probes: ``kernel="vectorized"`` (the default) routes and
    classifies the whole probe batch in one lockstep kernel call;
    ``kernel="serial"`` is the per-probe reference loop (one scalar
    secure search per probe).  Both consume identical RNG draws and
    produce identical statistics — the sweep substrate parity-tests them.

    ``probe_chunk`` (vectorized kernel only) streams the probes through
    fixed-size windows via :func:`measure_static_search_streamed`: the RNG
    draws happen once up front exactly as here, so results are bit-equal
    at any window size while the transient tables stay window-bounded.
    """
    n = gg.n
    # same draw order as InputGraph.random_route_batch, so stats (and every
    # cached table built on them) are unchanged by the kernel split
    sources = rng.integers(0, n, size=probes)
    targets = rng.random(probes)
    if kernel == "serial":
        router = SecureRouter(gg)
        delivered = 0
        path_len_total = 0
        counts = np.zeros(n, dtype=np.int64)
        for s, t in zip(sources, targets):
            out = router.search(int(s), float(t))
            delivered += 1 if out.delivered else 0
            prefix = out.path[: min(out.first_blocked + 1, out.path.size)]
            path_len_total += prefix.size
            np.add.at(counts, prefix, 1)
        # arranged exactly as the kernel's float reductions (mean = sum/n,
        # failure = 1 - mean) so both paths agree to the last bit
        failure_rate = 1.0 - delivered / probes
        mean_path_len = path_len_total / probes
        resp = counts.astype(np.float64) / probes
        return _finish_stats(
            gg, probes, resp_constant, failure_rate, mean_path_len,
            float(resp.max()),
        )
    if probe_chunk is not None and 0 < probe_chunk < probes:
        return measure_static_search_streamed(
            gg, sources, targets, probes,
            resp_constant=resp_constant, probe_chunk=probe_chunk,
        )
    return measure_static_search_routed(
        gg, gg.H.route_many(sources, targets), probes,
        resp_constant=resp_constant,
    )


def measure_static_search_routed(
    gg: GroupGraph,
    batch,
    probes: int,
    resp_constant: float = 8.0,
) -> StaticSearchStats:
    """The vectorized measurement over an already-routed probe batch.

    :func:`measure_static_search`'s one-shot path: the caller routes every
    probe in one ``route_many`` call and the secure-search classification
    and statistics happen here.  Every statistic is a padding-masked
    per-row reduction over the batch.
    """
    n = gg.n
    router = SecureRouter(gg)
    out = router.route_outcomes(batch)
    mask = out.search_path_mask()
    failure_rate = out.failure_rate
    mean_path_len = float(mask.sum(axis=1).mean())
    visited = batch.paths[mask]
    resp = np.bincount(visited, minlength=n).astype(np.float64) / probes
    return _finish_stats(
        gg, probes, resp_constant, failure_rate, mean_path_len,
        float(resp.max()),
    )


def measure_static_search_streamed(
    gg: GroupGraph,
    sources: np.ndarray,
    targets: np.ndarray,
    probes: int,
    resp_constant: float = 8.0,
    probe_chunk: int | None = None,
) -> StaticSearchStats:
    """Window-streamed variant of :func:`measure_static_search_routed`.

    Routes and classifies at most ``probe_chunk`` probes at a time, so the
    peak transient footprint is the window's ``(chunk, width)`` tables
    instead of the whole batch's — the difference between fitting and not
    fitting the 100k-probe workload at n = 10^6 in a ~4 GB budget.

    Every statistic reduces across windows through *integer* accumulators
    (delivered count, search-path cell count, per-node visit counts) and
    divides by ``probes`` once at the end — exactly how the one-shot kernel
    computes its float reductions (mean = sum / probes), so the streamed
    stats are bit-equal at any window size.  Each window emits a
    ``mem.peak`` telemetry event (phase ``static.search``).
    """
    from ..telemetry import emit_peak

    n = gg.n
    router = SecureRouter(gg)
    chunk = probes if not probe_chunk or probe_chunk <= 0 else int(probe_chunk)
    delivered_total = 0
    path_cells_total = 0
    counts = np.zeros(n, dtype=np.int64)
    for ci, start in enumerate(range(0, probes, chunk)):
        window = slice(start, start + chunk)
        routed = gg.H.route_many(sources[window], targets[window])
        out = router.route_outcomes(routed)
        mask = out.search_path_mask()
        delivered_total += int(out.delivered.sum())
        path_cells_total += int(mask.sum())
        counts += np.bincount(routed.paths[mask], minlength=n)
        emit_peak("static.search", chunk=ci)
    failure_rate = 1.0 - delivered_total / probes
    mean_path_len = path_cells_total / probes
    resp = counts.astype(np.float64) / probes
    return _finish_stats(
        gg, probes, resp_constant, failure_rate, mean_path_len,
        float(resp.max()),
    )


def measure_responsibility_bound(
    H: InputGraph, params: SystemParams, probes: int, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """Responsibility of every group in an all-blue graph (pure Lemma 1).

    With no red groups the search path equals the full ``H`` path, so this
    doubles as the P4 congestion measurement at group granularity.
    """
    gg = GroupGraph(H, params, red=np.zeros(H.n, dtype=bool))
    rho = gg.responsibility(probes, rng)
    c = H.congestion_exponent
    bound = 8.0 * (np.log(max(np.e, H.n)) ** c) / H.n
    return rho, float(bound)
