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

:func:`build_new_graph` performs one graph's construction in batches: all
bootstrap searches for all leaders are routed as one batch, then all
verification searches, then all neighbor searches, and every group's
composition falls out of the ``(group, slot)`` candidate matrix through
the row dedup and row reduction of :mod:`repro.idspace.csr`, which also
build the hashed groups and the neighbor sets.  This is what makes
multi-epoch, multi-seed sweeps (experiments E4/E5) tractable.  The test
suite's reference loops (per-probe scalar searches, the per-group
``np.unique`` composition) pin every batch bit-identical.

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

from ..idspace.csr import distinct_rows, indptr_of, row_counts, row_reduce
from ..idspace.ring import Ring
from ..inputgraph.base import InputGraph
from .costs import CostLedger
from .group_graph import GroupGraph
from .groups import composition_bad
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
        """Good members still present, per group: each row's size less
        its departed members."""
        departed = np.flatnonzero(self.pool_departed[self.good_members])
        return np.diff(self.good_indptr) - row_counts(self.good_indptr,
                                                      departed)

    def classify(self, params: SystemParams) -> np.ndarray:
        """Current red mask: composition-bad OR confused."""
        is_bad, _ = composition_bad(
            self.good_remaining() + self.n_bad, self.n_bad,
            params.group_min_size, params.bad_member_threshold,
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
) -> np.ndarray:
    """Route a search batch and return per-query failure under ``red``.

    The initiating position is not counted against the search (§III-A: the
    bootstrap group is assumed good, and verification searches are run by
    good candidates over their own links).  ``H.search_fail`` returns the
    fail bits and the hop total without building paths.  Charges
    routing messages: each hop between groups of solicited size ``s``
    costs ``s^2`` messages (Cor. 1 accounting).
    """
    s = params.group_solicit_size
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


def _compose_groups(
    captured: np.ndarray,
    bad_cand: np.ndarray,
    accepted: np.ndarray,
    cand: np.ndarray,
    pool_n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-group composition from the ``(groups, slots)`` outcome matrices.

    A captured slot adds a distinct bad member (the adversary's choice),
    the distinct bad candidates add theirs, and the distinct accepted
    candidates are the good members.  Returns ``(good_indptr,
    good_members, n_bad, sizes, membership_counts)``: the CSR of good
    members (pool indices, ascending per group), bad and total counts per
    group, and each pool ID's accepted memberships.  A row's unselected
    slots read ``pool_n``, above every candidate, and
    :func:`~repro.idspace.csr.distinct_rows` drops them with the repeats.
    """
    good_counts, good_members = distinct_rows(
        np.where(accepted, cand, pool_n), pool_n)
    bad_distinct, _ = distinct_rows(np.where(bad_cand, cand, pool_n), pool_n)
    n_bad = captured.sum(axis=1) + bad_distinct
    return (indptr_of(good_counts), good_members, n_bad, good_counts + n_bad,
            np.bincount(good_members, minlength=pool_n))


def build_new_graph(
    old: EpochPair,
    new_ring: Ring,
    new_H: InputGraph,
    which: int,
    params: SystemParams,
    rng: np.random.Generator,
    two_graphs: bool = True,
    ledger: CostLedger | None = None,
) -> BuildReport:
    """Construct new group graph ``which`` (1 or 2) for the next epoch.

    Members are drawn from ``old``'s leader population (the paper's
    active-then-passive pool).  ``two_graphs=False`` is the §III ablation:
    only old graph 1 is consulted and a *single* search failure captures a
    slot — the naive design whose error accumulates across epochs
    (experiment E5).

    Every search batch goes through ``H.search_fail``, candidate
    successors through the bucket-LUT bulk lookup, and all group
    compositions through :func:`_compose_groups`.
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

    reds = (old.red1, old.red2) if two_graphs else (old.red1,)

    def dual_fail(points: np.ndarray, sources: np.ndarray | None = None):
        """Search ``points`` on each consulted old graph; a search fails
        only when it fails on every one (§III-A).  Without ``sources``,
        each graph's are drawn from its blue groups, graph 1's first."""
        fail = np.ones(points.size, dtype=bool)
        for red in reds:
            src = (_good_sources(red, points.size, rng) if sources is None
                   else sources)
            fail &= _search_fail_mask(old.H, red, src, points, params, ledger)
        return fail

    # --- bootstrap dual searches ------------------------------------------------
    captured = dual_fail(flat_pts)

    # --- candidate successors among the member pool ------------------------------
    cand = old.ring.successor_index_bulk(flat_pts)
    cand_bad = old.bad_mask[cand]
    cand_departed = old.ring_departed[cand] & ~cand_bad

    # --- verification by good candidates (dual search from their position) ----
    good_cand = ~captured & ~cand_bad & ~cand_departed
    vfail = np.zeros(q, dtype=bool)
    gi = np.flatnonzero(good_cand)
    if gi.size:
        vfail[gi] = dual_fail(flat_pts[gi], cand[gi])

    # --- per-group composition ----------------------------------------------------
    # Slot outcomes: captured -> distinct bad member (adversary's choice);
    # bad candidate -> bad member; good candidate accepted -> good member;
    # rejection/departed -> missing member.
    good_indptr, good_members_flat, n_bad, sizes, membership_counts = (
        _compose_groups(
            captured.reshape(n_new, m),
            (~captured & cand_bad).reshape(n_new, m),
            (good_cand & ~vfail).reshape(n_new, m),
            cand.reshape(n_new, m),
            old_n,
        )
    )

    is_bad, _ = composition_bad(
        sizes, n_bad, params.group_min_size, params.bad_member_threshold
    )

    # --- neighbor requests -> confusion (Lemma 8) ----------------------------------
    indptr, _ = new_H.neighbor_lists()
    total_slots = int(indptr[-1])
    find_pts = rng.random(total_slots)
    find_fail = dual_fail(find_pts)
    verify_fail = dual_fail(find_pts)
    is_confused = row_reduce(np.logical_or, indptr, find_fail | verify_fail)

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
) -> tuple[float, float]:
    """Measured search-failure probability ``q_f`` of each graph in a pair.

    Each graph gets ``probes`` searches from u.a.r. sources to u.a.r. keys
    (sources drawn first, then keys — the ``random_route_batch`` order).
    """
    out = []
    for which in (1, 2):
        gg = pair.group_graph(which, params)
        src = rng.integers(0, gg.n, size=probes)
        success = gg.search_success(src, rng.random(probes))
        out.append(float(1.0 - success.mean()) if success.size else 0.0)
    return out[0], out[1]
