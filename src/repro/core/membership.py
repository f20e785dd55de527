"""Building new group graphs from old ones (paper §III-A).

In epoch ``j`` the system holds **two old group graphs** over the same ID
population (same ring, same input graph ``H``; the group *compositions*
differ — graph 1 uses oracle ``h1``, graph 2 uses ``h2`` — and so do the
red markings).  New-epoch groups are assembled by searching in *both* old
graphs:

* **group-membership request** — the i-th member of the new ``G_w`` is
  ``suc(h(w, i))`` among the old IDs; the bootstrapping group searches the
  point in both old graphs; only if *both* searches fail does the adversary
  capture the slot (probability ``~q_f^2``);
* **verification** — the solicited ID ``u`` re-derives the point and
  searches it in both old graphs itself, accepting iff either search returns
  ``u``; an erroneous rejection needs another dual failure;
* **neighbor request** — same dual pattern for each edge of ``L_w`` in the
  new topology; a group that ends up linking wrongly is *confused*
  (Lemma 8).

:func:`build_new_graph` performs one graph's construction fully vectorized
(``kernel="vectorized"``, the default): all bootstrap searches for all
leaders are routed as one batch, then all verification searches, then all
neighbor searches, and every group's composition falls out of row sorts
of the ``(group, slot)`` candidate matrix.  This is what makes multi-epoch,
multi-seed sweeps (experiments E4/E5) tractable.  ``kernel="serial"``
keeps the reference oracle — per-probe scalar searches and the per-group
``np.unique`` loop — which consumes the RNG identically and is pinned
bit-identical by the dynamic differential-oracle suite.

The per-slot outcomes follow Lemma 7's case analysis, except case 3:

=====================  ==========================================  =========
Event                   Simulated as                                Rate
=====================  ==========================================  =========
slot captured           both bootstrap searches hit red groups     ``q_f^2``
bad successor           candidate ID is bad (u.a.r. placement)     ``~beta``
erroneous rejection     not simulated: both verification searches  ``0``
                        start at ``cand``, the point's responsible
                        ID, so they take 0 hops and never fail
=====================  ==========================================  =========

The paper's rate for an erroneous rejection is ``q_f^2``.  Simulating it
needs verification searches that start where §III-A says the solicited
ID searches from; ROADMAP item 6 tracks that, and until then
:attr:`BuildReport.rejection_rate` is 0 by construction.

Churn bookkeeping: each group's *good* members are stored in a CSR over the
member pool (the previous epoch's ID population — those IDs stay active,
then passive, exactly so they can serve; §III-A).  Departures flip flags in
the shared pool array and :meth:`EpochPair.reclassify` re-derives the red
masks — a group whose good membership decays below the ``(1+delta)beta``
line (or the ``d1 ln ln n`` floor) turns red, which is why the paper caps
good departures at an ``eps'/2`` fraction per epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..idspace.ring import Ring
from ..inputgraph.base import InputGraph
from .costs import CostLedger
from .group_graph import GroupGraph
from .params import SystemParams

__all__ = [
    "GraphSide",
    "EpochPair",
    "BuildReport",
    "build_new_graph",
    "measure_qf",
]


@dataclass
class GraphSide:
    """Per-graph bookkeeping inside an :class:`EpochPair`.

    ``good_indptr``/``good_members`` is the CSR of *good* members per group,
    indexing into the member pool; ``n_bad`` is the (fixed) count of bad
    members the adversary placed at build time; ``confused`` marks groups
    with broken neighbor sets (Lemma 8).  ``pool_departed`` is a *shared*
    reference to the member pool's departure flags.
    """

    good_indptr: np.ndarray
    good_members: np.ndarray
    n_bad: np.ndarray
    confused: np.ndarray
    pool_departed: np.ndarray

    def good_remaining(self) -> np.ndarray:
        """Good members still present, per group (vectorized reduceat)."""
        n_groups = self.good_indptr.size - 1
        present = (~self.pool_departed[self.good_members]).astype(np.int64)
        out = np.zeros(n_groups, dtype=np.int64)
        sizes = np.diff(self.good_indptr)
        nonempty = sizes > 0
        if present.size:
            out[nonempty] = np.add.reduceat(present, self.good_indptr[:-1][nonempty])
        return out

    def classify(self, params: SystemParams) -> np.ndarray:
        """Current red mask: composition-bad OR confused."""
        good = self.good_remaining()
        size_now = good + self.n_bad
        with np.errstate(invalid="ignore"):
            frac = np.where(size_now > 0, self.n_bad / np.maximum(size_now, 1), 1.0)
        is_bad = (size_now < params.group_min_size) | (
            frac > params.bad_member_threshold
        )
        return is_bad | self.confused


@dataclass
class EpochPair:
    """One epoch's ID population with its two group graphs.

    ``ring``/``H``/``bad_mask`` describe the vertex (leader) population —
    which doubles as the member pool for the *next* epoch's groups.
    ``ring_departed`` flags leaders that departed during this pair's
    lifetime (they can no longer accept membership in new groups).
    """

    ring: Ring
    H: InputGraph
    bad_mask: np.ndarray
    red1: np.ndarray
    red2: np.ndarray
    side1: GraphSide | None = None
    side2: GraphSide | None = None
    ring_departed: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.ring_departed is None:
            self.ring_departed = np.zeros(self.ring.n, dtype=bool)

    def red(self, which: int) -> np.ndarray:
        if which == 1:
            return self.red1
        if which == 2:
            return self.red2
        raise ValueError("graph index must be 1 or 2")

    def side(self, which: int) -> GraphSide | None:
        return self.side1 if which == 1 else self.side2

    @property
    def n(self) -> int:
        return self.ring.n

    def fraction_red(self) -> float:
        return float(0.5 * (self.red1.mean() + self.red2.mean()))

    def group_graph(self, which: int, params: SystemParams) -> GroupGraph:
        return GroupGraph(self.H, params, red=self.red(which))

    def reclassify(self, params: SystemParams) -> None:
        """Refresh red masks after departures (good-majority decay)."""
        if self.side1 is not None:
            self.red1 = self.side1.classify(params)
        if self.side2 is not None:
            self.red2 = self.side2.classify(params)


@dataclass(frozen=True)
class BuildReport:
    """Measured construction statistics for one new group graph."""

    n_new: int
    which: int
    slot_capture_rate: float      # dual bootstrap failure (Lemma 7 case 1)
    bad_candidate_rate: float     # successor was a bad ID (Lemma 7 case 2)
    rejection_rate: float         # Lemma 7 case 3; 0 by construction (module doc)
    fraction_bad: float
    fraction_confused: float
    fraction_red: float
    mean_group_size: float
    searches_routed: int
    routing_messages: int
    membership_counts: np.ndarray  # per pool ID: accepted memberships (Lemma 10)
    red: np.ndarray
    sizes: np.ndarray
    side: GraphSide


def _search_fail_mask(
    H: InputGraph,
    red: np.ndarray,
    sources: np.ndarray,
    points: np.ndarray,
    params: SystemParams,
    ledger: CostLedger,
    kernel: str = "vectorized",
) -> np.ndarray:
    """Route a search batch and return per-query failure under ``red``.

    The initiating position is not counted against the search (§III-A: the
    bootstrap group is assumed good, and verification searches are run by
    good candidates over their own links).  Charges routing messages: each
    hop between groups of solicited size ``s`` costs ``s^2`` messages
    (Cor. 1 accounting).

    ``kernel="serial"`` is the per-probe reference oracle: one scalar
    ``H.route`` per query with an explicit red-prefix check.  The default
    vectorized kernel hands the whole batch to ``H.search_fail``, which
    returns the fail bits and the hop total (Chord's never builds the
    paths); both charge identical ledger totals and produce identical
    masks (differential-tested).
    """
    s = params.group_solicit_size
    if kernel == "serial":
        q = points.size
        fail = np.zeros(q, dtype=bool)
        hops = 0
        for i in range(q):
            path, resolved = H.route(int(sources[i]), float(points[i]))
            hops += path.size - 1
            # exclude the initiating position, exactly as the batched
            # H.search_fail does
            fail[i] = not (resolved and not red[path[1:]].any())
        ledger.add_messages("routing", hops * s * s)
        ledger.count_op("searches", q)
        return fail
    fail, hops = H.search_fail(sources, points, red)
    ledger.add_messages("routing", hops * s * s)
    ledger.count_op("searches", fail.size)
    return fail


def _good_sources(
    red: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Source groups for bootstrap-initiated searches.

    A joining ID is assumed to know a *good* bootstrap group (App. IX);
    accordingly sources are sampled from blue groups.  Degenerate fallback
    (everything red) samples uniformly — the system is already dead then.
    """
    blue = np.flatnonzero(~red)
    if blue.size == 0:
        return rng.integers(0, red.size, size=count)
    return rng.choice(blue, size=count, replace=True)


def _distinct_per_group(
    cand: np.ndarray, selected: np.ndarray, sentinel: int
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct selected candidates per row of the ``(groups, slots)`` matrix.

    Returns ``(flat, counts)`` where ``flat`` lists each group's distinct
    values among its ``selected`` slots of ``cand`` in ascending order
    (groups concatenated in row order) and ``counts[g]`` is group ``g``'s
    distinct count — exactly what the per-group ``np.unique`` reference
    loop produces.  Unselected slots read ``sentinel``, which is above
    every candidate, so sorting each row moves them to its end; the
    segment-dedup mask of ``_points_to_csr`` then keeps the first of each
    run of equal values, less the sentinel's.
    """
    if not selected.any():
        return np.empty(0, dtype=np.int64), np.zeros(cand.shape[0], dtype=np.int64)
    rows = np.where(selected, cand, sentinel)
    rows.sort(axis=1)
    keep = rows != sentinel
    keep[:, 1:] &= rows[:, 1:] != rows[:, :-1]
    return rows[keep], keep.sum(axis=1)


def _any_per_row(indptr: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Per row of the CSR ``indptr``: is any of the row's ``flags`` set?

    A segment OR over the non-empty rows' starts, the pattern of
    :meth:`GraphSide.good_remaining`: ``reduceat`` would read an empty
    row as the next row's first flag, so empty rows are left ``False``.
    """
    out = np.zeros(indptr.size - 1, dtype=bool)
    if flags.size:
        nonempty = indptr[1:] > indptr[:-1]
        out[nonempty] = np.logical_or.reduceat(flags, indptr[:-1][nonempty])
    return out


def build_new_graph(
    old: EpochPair,
    new_ring: Ring,
    new_H: InputGraph,
    which: int,
    params: SystemParams,
    rng: np.random.Generator,
    two_graphs: bool = True,
    ledger: CostLedger | None = None,
    kernel: str = "vectorized",
) -> BuildReport:
    """Construct new group graph ``which`` (1 or 2) for the next epoch.

    Members are drawn from ``old``'s leader population (the paper's
    active-then-passive pool).  ``two_graphs=False`` is the §III ablation:
    only old graph 1 is consulted and a *single* search failure captures a
    slot — the naive design whose error accumulates across epochs
    (experiment E5).

    ``kernel`` selects the execution path: ``"vectorized"`` (default)
    sends every search batch through ``H.search_fail``, resolves candidate
    successors through the bucket-LUT bulk lookup, and derives all group
    compositions from row sorts of the ``(group, slot)`` candidate matrix;
    ``"serial"`` is the reference oracle — per-probe scalar searches and
    the per-group ``np.unique`` composition loop.  Both consume the RNG
    identically and produce bit-identical reports (pinned by the
    differential test suite).
    """
    ledger = ledger if ledger is not None else CostLedger()
    n_new = new_ring.n
    m = params.group_solicit_size
    old_n = old.ring.n

    # --- membership points: h(w, i) are u.a.r. under the random-oracle
    # assumption; the fast stream draw is distribution-identical. -------------
    pts = rng.random((n_new, m))
    flat_pts = pts.ravel()
    q = flat_pts.size

    # --- bootstrap dual searches ------------------------------------------------
    boot_src_1 = _good_sources(old.red1, q, rng)
    fail_a = _search_fail_mask(
        old.H, old.red1, boot_src_1, flat_pts, params, ledger, kernel
    )
    if two_graphs:
        boot_src_2 = _good_sources(old.red2, q, rng)
        fail_b = _search_fail_mask(
            old.H, old.red2, boot_src_2, flat_pts, params, ledger, kernel
        )
        captured = fail_a & fail_b
    else:
        captured = fail_a

    # --- candidate successors among the member pool ------------------------------
    if kernel == "serial":
        cand = old.ring.successor_index_many(flat_pts)
    else:
        cand = old.ring.successor_index_bulk(flat_pts)
    cand_bad = old.bad_mask[cand]
    cand_departed = old.ring_departed[cand] & ~cand_bad

    # --- verification by good candidates (dual search from their position) ----
    good_cand = ~captured & ~cand_bad & ~cand_departed
    vfail = np.zeros(q, dtype=bool)
    gi = np.flatnonzero(good_cand)
    if gi.size:
        vsrc = cand[gi]
        vf1 = _search_fail_mask(
            old.H, old.red1, vsrc, flat_pts[gi], params, ledger, kernel
        )
        if two_graphs:
            vf2 = _search_fail_mask(
                old.H, old.red2, vsrc, flat_pts[gi], params, ledger, kernel
            )
            vfail[gi] = vf1 & vf2
        else:
            vfail[gi] = vf1

    # --- per-group composition ----------------------------------------------------
    # Slot outcomes: captured -> distinct bad member (adversary's choice);
    # bad candidate -> bad member; good candidate accepted -> good member;
    # rejection/departed -> missing member.
    captured_m = captured.reshape(n_new, m)
    badcand_m = (~captured & cand_bad).reshape(n_new, m)
    accept_m = (good_cand & ~vfail).reshape(n_new, m)
    cand_m = cand.reshape(n_new, m)

    if kernel == "serial":
        sizes = np.zeros(n_new, dtype=np.int64)
        n_bad = np.zeros(n_new, dtype=np.int64)
        membership_counts = np.zeros(old_n, dtype=np.int64)
        good_rows: list[np.ndarray] = []
        for gidx in range(n_new):
            good_members = np.unique(cand_m[gidx][accept_m[gidx]])
            bad_members = np.unique(cand_m[gidx][badcand_m[gidx]])
            n_b = int(captured_m[gidx].sum()) + bad_members.size
            sizes[gidx] = good_members.size + n_b
            n_bad[gidx] = n_b
            membership_counts[good_members] += 1
            good_rows.append(good_members)
        good_indptr = np.zeros(n_new + 1, dtype=np.int64)
        good_indptr[1:] = np.cumsum([r.size for r in good_rows])
        good_members_flat = (
            np.concatenate(good_rows) if good_rows else np.empty(0, dtype=np.int64)
        )
    else:
        good_members_flat, good_counts = _distinct_per_group(cand_m, accept_m, old_n)
        _, bad_distinct = _distinct_per_group(cand_m, badcand_m, old_n)
        n_bad = captured_m.sum(axis=1) + bad_distinct
        sizes = good_counts + n_bad
        membership_counts = np.bincount(good_members_flat, minlength=old_n)
        good_indptr = np.zeros(n_new + 1, dtype=np.int64)
        np.cumsum(good_counts, out=good_indptr[1:])

    with np.errstate(invalid="ignore"):
        bad_frac = np.where(sizes > 0, n_bad / np.maximum(sizes, 1), 1.0)
    is_bad = (sizes < params.group_min_size) | (bad_frac > params.bad_member_threshold)

    # --- neighbor requests -> confusion (Lemma 8) ----------------------------------
    indptr, _ = new_H.neighbor_lists()
    total_slots = int(indptr[-1])
    find_pts = rng.random(total_slots)
    f1 = _search_fail_mask(
        old.H, old.red1, _good_sources(old.red1, total_slots, rng), find_pts,
        params, ledger,
    )
    if two_graphs:
        f2 = _search_fail_mask(
            old.H, old.red2, _good_sources(old.red2, total_slots, rng), find_pts,
            params, ledger,
        )
        find_fail = f1 & f2
    else:
        find_fail = f1
    v1 = _search_fail_mask(
        old.H, old.red1, _good_sources(old.red1, total_slots, rng), find_pts,
        params, ledger,
    )
    if two_graphs:
        v2 = _search_fail_mask(
            old.H, old.red2, _good_sources(old.red2, total_slots, rng), find_pts,
            params, ledger,
        )
        verify_fail = v1 & v2
    else:
        verify_fail = v1
    is_confused = _any_per_row(indptr, find_fail | verify_fail)

    red = is_bad | is_confused
    # The new side's member pool is the old leader population; share its
    # departure flags so later churn propagates into reclassification.
    side = GraphSide(
        good_indptr=good_indptr,
        good_members=good_members_flat,
        n_bad=n_bad,
        confused=is_confused,
        pool_departed=old.ring_departed,
    )
    return BuildReport(
        n_new=n_new,
        which=which,
        slot_capture_rate=float(captured.mean()),
        bad_candidate_rate=float(cand_bad.mean()),
        rejection_rate=float(vfail[gi].mean()) if gi.size else 0.0,
        fraction_bad=float(is_bad.mean()),
        fraction_confused=float(is_confused.mean()),
        fraction_red=float(red.mean()),
        mean_group_size=float(sizes.mean()),
        searches_routed=int(ledger.operations.get("searches", 0)),
        routing_messages=int(ledger.messages.get("routing", 0)),
        membership_counts=membership_counts,
        red=red,
        sizes=sizes,
        side=side,
    )


def measure_qf(
    pair: EpochPair,
    params: SystemParams,
    probes: int,
    rng: np.random.Generator,
    kernel: str = "vectorized",
) -> tuple[float, float]:
    """Measured search-failure probability ``q_f`` of each graph in a pair.

    Both kernels draw the probe batch identically (sources, then targets —
    the ``random_route_batch`` order); ``"serial"`` then walks one scalar
    search per probe while the default evaluates the batch in lockstep,
    with bit-equal rates.
    """
    out = []
    for which in (1, 2):
        gg = pair.group_graph(which, params)
        if kernel == "serial":
            src = rng.integers(0, gg.n, size=probes)
            tgt = rng.random(probes)
            success = np.zeros(probes, dtype=bool)
            for i in range(probes):
                path, resolved = gg.H.route(int(src[i]), float(tgt[i]))
                success[i] = resolved and not gg.red[path].any()
            rate = float(1.0 - success.mean()) if success.size else 0.0
        else:
            rate, _, _ = gg.sample_failure_rate(probes, rng)
        out.append(rate)
    return out[0], out[1]
