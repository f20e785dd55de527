"""Groups: construction and good/bad classification (paper §I-C, §II-A).

Every ID ``w`` leads its own group ``G_w`` whose members are the successors
of the oracle points ``h(w, i)``, ``i = 1 .. d2 ln ln n``.  A group is *good*
iff

1. it has at least ``d1 ln ln n`` distinct members (size window), and
2. at most a ``(1 + delta) beta`` fraction of its members are bad.

Groups are **not disjoint**: an ID typically belongs to ``Theta(log log n)``
groups besides leading its own (Lemma 10 bounds the expected count).

Storage is CSR (flat ``member_idx`` + ``indptr``), built and read through
:mod:`repro.idspace.csr`: classification of all n groups is then a few
vectorized reductions instead of n Python loops — this is the layout the
construction, churn, and state-cost experiments all share.

Construction: the oracle points of a row block of leaders map to the
``(leaders, m)`` matrix of their successors, and
:func:`~repro.idspace.csr.distinct_rows` (one row sort and one flat keep
mask) emits each group's distinct members — no per-group ``np.unique``
calls, no Python-level per-leader loop.
``build_groups_fast`` draws its points in row blocks
(:func:`~repro.idspace.ring.row_blocks`; ``build_groups`` hashes all
leaders as one block), and the blocks' lookup, sort and dedup run on up
to four threads (:func:`~repro.idspace.ring.map_blocks`) while the
calling thread draws the blocks and writes the CSR in order.  The blocks
in flight hold ~2^19 points in all, so at n = 2^20 no ``(n, m)`` point
array is ever held.  The CSR arrays are property-tested byte-identical
to the test suite's per-leader ``np.unique`` loop, at any thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..idspace.csr import distinct_rows, indptr_of, row_counts
from ..idspace.hashing import RandomOracle
from ..idspace.ring import Ring, map_blocks, row_blocks
from .params import SystemParams

__all__ = [
    "GroupSet",
    "build_groups",
    "build_groups_fast",
    "classify_groups",
    "composition_bad",
    "GroupQuality",
]

def _as_index(arr) -> np.ndarray:
    """Coerce to an index array, preserving an already-narrow int32 layout."""
    arr = np.asarray(arr)
    if arr.dtype == np.int32 or arr.dtype == np.int64:
        return arr
    return arr.astype(np.int64)


class GroupSet:
    """CSR collection of ``n_groups`` member lists over a ring of IDs.

    ``members_of(g)`` returns ring indices of group ``g``'s members (distinct,
    sorted).  The group's *leader* is the ID at ring index ``leaders[g]``;
    by construction group ``g`` of the paper is ``G_{leaders[g]}``.
    """

    __slots__ = ("leaders", "indptr", "member_idx", "n_groups", "n_ids")

    def __init__(self, leaders: np.ndarray, indptr: np.ndarray,
                 member_idx: np.ndarray, n_ids: int):
        # index arrays keep the builder's (ring-policy) dtype — at n = 10^6
        # the flat member list is the biggest array the static pipeline owns
        self.leaders = _as_index(leaders)
        self.indptr = _as_index(indptr)
        self.member_idx = _as_index(member_idx)
        self.n_groups = int(self.leaders.size)
        self.n_ids = int(n_ids)
        if self.indptr.size != self.n_groups + 1:
            raise ValueError("indptr must have n_groups + 1 entries")

    def members_of(self, g: int) -> np.ndarray:
        return self.member_idx[self.indptr[g] : self.indptr[g + 1]]

    def sizes(self) -> np.ndarray:
        return np.diff(self.indptr)

    def membership_counts(self) -> np.ndarray:
        """How many groups each ID belongs to (Lemma 10's first quantity)."""
        return np.bincount(self.member_idx, minlength=self.n_ids)

    def bad_counts(self, bad_mask: np.ndarray) -> np.ndarray:
        """Number of bad members per group, vectorized over all groups."""
        flags = np.asarray(bad_mask, dtype=bool)[self.member_idx]
        return row_counts(self.indptr, np.flatnonzero(flags))

    def __len__(self) -> int:
        return self.n_groups


@dataclass(frozen=True)
class GroupQuality:
    """Vectorized classification result for a :class:`GroupSet`."""

    is_bad: np.ndarray          # composition violates size/bad-fraction rules
    bad_fraction: np.ndarray    # per-group bad-member fraction
    sizes: np.ndarray

    @property
    def bad_group_fraction(self) -> float:
        return float(self.is_bad.mean()) if self.is_bad.size else 0.0


def _points_to_csr(
    ring: Ring, blocks: Iterable[np.ndarray], ng: int, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Oracle points -> CSR ``(indptr, member_idx)``.

    ``blocks`` yields the ``(ng, m)`` point matrix as consecutive row
    blocks.  Per block, one bulk successor lookup maps every point to its
    member index and :func:`~repro.idspace.csr.distinct_rows` reduces each
    row to its distinct members, ascending — no per-group ``np.unique``.
    The blocks run on :func:`~repro.idspace.ring.map_blocks`' threads;
    this thread pulls them from ``blocks`` and writes their members in
    order.  Sizes, members and ``indptr`` carry the ring's index dtype
    (``indptr`` is int64 when its total does not fit).
    """
    dt = ring.index_dtype

    def dedup(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return distinct_rows(
            ring.successor_index_bulk(pts.ravel()).reshape(pts.shape))

    sizes = np.zeros(ng, dtype=dt)
    # room for every point; the tail that dedup leaves unwritten is never
    # touched, so it never becomes resident
    members = np.empty(ng * m, dtype=dt)
    row = total = 0
    for counts, kept in map_blocks(dedup, blocks):
        sizes[row : row + counts.size] = counts
        members[total : total + kept.size] = kept
        row += counts.size
        total += kept.size
    indptr = indptr_of(sizes, dt if total <= np.iinfo(dt).max else np.int64)
    return indptr, members[:total]


def build_groups(
    ring: Ring,
    params: SystemParams,
    oracle: RandomOracle,
    leaders: np.ndarray | None = None,
    solicit: int | None = None,
) -> GroupSet:
    """Form ``G_w`` for every leader ``w`` by hashing (paper §III-A).

    The i-th member of ``G_w`` is ``suc(h(w, i))`` on ``ring``.  Duplicate
    members (two oracle points landing in the same arc) are collapsed, which
    is why group sizes land in the ``[d1 ln ln n, d2 ln ln n]`` window rather
    than exactly at the solicit count.

    ``leaders`` defaults to every ID on the ring (the paper's "n IDs and n
    groups"); the dynamic protocol passes new-epoch leaders against the old
    ring instead.  The oracle calls are the only part a verifier must be
    able to replay point-wise.
    """
    if leaders is None:
        leaders = np.arange(ring.n, dtype=ring.index_dtype)
    m = params.group_solicit_size if solicit is None else int(solicit)
    ids = ring.ids
    pts = np.empty((len(leaders), m), dtype=np.float64)
    for i, lead in enumerate(leaders):
        pts[i] = oracle.many(float(ids[lead]) if lead < ring.n else int(lead), m)
    indptr, member_idx = _points_to_csr(ring, [pts], *pts.shape)
    return GroupSet(np.asarray(leaders), indptr, member_idx, ring.n)


def build_groups_fast(
    ring: Ring,
    params: SystemParams,
    rng: np.random.Generator,
    n_groups: int | None = None,
    solicit: int | None = None,
) -> GroupSet:
    """Monte-Carlo variant of :func:`build_groups`.

    Replaces per-point oracle calls with one vectorized uniform draw — the
    distribution is identical under the random-oracle assumption (see
    ``hashing.RandomOracle.uniform_stream``), and it is the only way to run
    the large-n sweeps.  Cross-checked against :func:`build_groups` in the
    test suite.

    The points are the stream of one ``rng.random((ng, m))`` draw, drawn
    in row blocks (:func:`~repro.idspace.ring.row_blocks`) on the calling
    thread: consecutive ``rng.random`` draws give the same values, and
    leave the generator in the same state, as the one draw, and no
    ``(ng, m)`` point array is held.  Leaders are stored at the ring's
    index dtype.
    """
    ng = ring.n if n_groups is None else int(n_groups)
    m = params.group_solicit_size if solicit is None else int(solicit)
    # leader g is ID g mod n; only more groups than IDs need the modulo
    if ng <= ring.n:
        leaders = np.arange(ng, dtype=ring.index_dtype)
    else:
        leaders = (np.arange(ng) % ring.n).astype(ring.index_dtype)
    blocks = (rng.random((rows.stop - rows.start, m))
              for rows in row_blocks(ng, m))
    indptr, member_idx = _points_to_csr(ring, blocks, ng, m)
    return GroupSet(leaders, indptr, member_idx, ring.n)


def composition_bad(
    sizes: np.ndarray, n_bad: np.ndarray, min_size: int, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """The good-group rule of §I-C, over per-group member counts.

    A group is bad iff it has fewer than ``min_size`` members or its bad
    fraction exceeds ``threshold`` (an empty group's fraction reads 1).
    Returns ``(is_bad, bad_fraction)``.  Every red mask built from group
    composition — the static build, the epoch construction and the
    re-classification after departures — comes from this rule.  With
    ``threshold < 1/2``, as ``SystemParams`` demands, a group whose bad
    members are not a strict minority is always bad, so a good group's
    majority filter can never be outvoted (the premise of
    :meth:`~repro.core.group_graph.GroupGraph.evaluate`).
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(sizes > 0, n_bad / np.maximum(sizes, 1), 1.0)
    return (sizes < min_size) | (frac > threshold), frac


def classify_groups(
    groups: GroupSet,
    bad_mask: np.ndarray,
    params: SystemParams,
    min_size: int | None = None,
    threshold: float | None = None,
) -> GroupQuality:
    """Good/bad classification (paper §I-C definition of a good group).

    Bad iff ``size < d1 ln ln n`` (too few distinct members) or the bad
    fraction exceeds ``(1 + delta) beta``.  The leader's own badness does
    *not* mark the group bad: the paper classifies by member composition,
    and a good-majority group routes correctly regardless of who leads it.

    ``min_size``/``threshold`` override the params-derived values — used by
    the ``Theta(log n)``-group baseline, which shares this machinery.
    """
    sizes = groups.sizes()
    is_bad, frac = composition_bad(
        sizes,
        groups.bad_counts(bad_mask),
        params.group_min_size if min_size is None else int(min_size),
        params.bad_member_threshold if threshold is None else float(threshold),
    )
    return GroupQuality(is_bad=is_bad, bad_fraction=frac, sizes=sizes)
