"""Groups: construction and good/bad classification (paper §I-C, §II-A).

Every ID ``w`` leads its own group ``G_w`` whose members are the successors
of the oracle points ``h(w, i)``, ``i = 1 .. d2 ln ln n``.  A group is *good*
iff

1. it has at least ``d1 ln ln n`` distinct members (size window), and
2. at most a ``(1 + delta) beta`` fraction of its members are bad.

Groups are **not disjoint**: an ID typically belongs to ``Theta(log log n)``
groups besides leading its own (Lemma 10 bounds the expected count).

Storage is CSR (flat ``member_idx`` + ``offsets``): classification of all n
groups is then three vectorized reductions instead of n Python loops — this
is the layout the construction, churn, and state-cost experiments all share.

Construction comes in two kernels selected by ``kernel=``:

``"vectorized"`` (the default)
    The oracle points of a row block of leaders map to the flat
    ``(leader, member)`` edge array of their groups; a row-sort (the edges
    are then lexsorted by ``(leader, member)``) plus a segment-dedup mask
    collapses duplicate oracle points and emits the CSR arrays directly —
    no per-group ``np.unique`` calls, no Python-level per-leader loop.
    ``build_groups_fast`` draws its points in blocks of ~2^18
    (``build_groups`` hashes all leaders as one block), so at n = 2^20 no
    ``(n, m)`` point array is ever held.
``"serial"``
    The original per-leader loop, kept as the reference oracle.  Both
    kernels consume the RNG/oracle identically and produce **byte-identical
    CSR arrays** (property-tested), so tables never depend on the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..idspace.hashing import RandomOracle
from ..idspace.ring import Ring, row_blocks
from .params import SystemParams

__all__ = [
    "GroupSet",
    "KERNELS",
    "build_groups",
    "build_groups_fast",
    "classify_groups",
    "GroupQuality",
]

KERNELS = ("serial", "vectorized")


def _require_kernel(kernel: str) -> None:
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; choose from {KERNELS}")


def _as_index(arr) -> np.ndarray:
    """Coerce to an index array, preserving an already-narrow int32 layout."""
    arr = np.asarray(arr)
    if arr.dtype == np.int32 or arr.dtype == np.int64:
        return arr
    return arr.astype(np.int64)


def _narrow_indptr(ring: Ring, indptr: np.ndarray) -> np.ndarray:
    """Store ``indptr`` at the ring's index dtype when its totals fit."""
    dt = ring.index_dtype
    if indptr.size and int(indptr[-1]) <= np.iinfo(dt).max:
        return indptr.astype(dt, copy=False)
    return indptr


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
        self.leaders = np.asarray(leaders, dtype=np.int64)
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
        flags = np.asarray(bad_mask, dtype=np.int64)[self.member_idx]
        # reduceat needs non-empty slices; guard empty groups explicitly.
        sizes = self.sizes()
        out = np.zeros(self.n_groups, dtype=np.int64)
        nonempty = sizes > 0
        if flags.size:
            sums = np.add.reduceat(flags, self.indptr[:-1][nonempty])
            out[nonempty] = sums
        return out

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
    """Vectorized kernel: oracle points -> CSR ``(indptr, member_idx)``.

    ``blocks`` yields the ``(ng, m)`` point matrix as consecutive row
    blocks.  Per block, one bulk successor lookup maps every point to its
    member index; sorting each row then makes the flat ``(leader, member)``
    edge array lexsorted by ``(leader, member)``, so duplicate members
    inside a group are exactly the positions equal to their left neighbor
    — a single segment-dedup mask replaces the per-group ``np.unique``
    calls, and the kept-per-row counts cumsum into ``indptr``.
    Byte-identical to the serial loop.
    """
    sizes = np.zeros(ng, dtype=np.int64)
    # room for every point; the tail that dedup leaves unwritten is never
    # touched, so it never becomes resident.  Member indices carry
    # ring.index_dtype, as the bulk lookup does.
    members = np.empty(ng * m, dtype=ring.index_dtype)
    row = total = 0
    for pts in blocks:
        rows = pts.shape[0]
        if pts.size:  # zero solicit: all-empty groups
            idx = ring.successor_index_bulk(pts.ravel()).reshape(rows, m)
            idx.sort(axis=1)
            keep = np.empty((rows, m), dtype=bool)
            keep[:, 0] = True
            np.not_equal(idx[:, 1:], idx[:, :-1], out=keep[:, 1:])
            keep.sum(axis=1, out=sizes[row : row + rows])
            kept = idx[keep]
            members[total : total + kept.size] = kept
            total += kept.size
        row += rows
    indptr = np.zeros(ng + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    return _narrow_indptr(ring, indptr), members[:total]


def build_groups(
    ring: Ring,
    params: SystemParams,
    oracle: RandomOracle,
    leaders: np.ndarray | None = None,
    solicit: int | None = None,
    kernel: str = "vectorized",
) -> GroupSet:
    """Form ``G_w`` for every leader ``w`` by hashing (paper §III-A).

    The i-th member of ``G_w`` is ``suc(h(w, i))`` on ``ring``.  Duplicate
    members (two oracle points landing in the same arc) are collapsed, which
    is why group sizes land in the ``[d1 ln ln n, d2 ln ln n]`` window rather
    than exactly at the solicit count.

    ``leaders`` defaults to every ID on the ring (the paper's "n IDs and n
    groups"); the dynamic protocol passes new-epoch leaders against the old
    ring instead.  ``kernel`` selects the vectorized CSR construction or the
    per-leader reference loop; the oracle calls — the only part a verifier
    must be able to replay point-wise — are identical either way.
    """
    _require_kernel(kernel)
    if leaders is None:
        leaders = np.arange(ring.n, dtype=np.int64)
    m = params.group_solicit_size if solicit is None else int(solicit)
    ids = ring.ids
    if kernel == "vectorized":
        pts = np.empty((len(leaders), m), dtype=np.float64)
        for i, lead in enumerate(leaders):
            pts[i] = oracle.many(float(ids[lead]) if lead < ring.n else int(lead), m)
        indptr, member_idx = _points_to_csr(ring, [pts], *pts.shape)
        return GroupSet(np.asarray(leaders), indptr, member_idx, ring.n)
    rows: list[np.ndarray] = []
    for lead in leaders:
        pts = oracle.many(float(ids[lead]) if lead < ring.n else int(lead), m)
        members = np.unique(ring.successor_index_many(pts))
        rows.append(members)
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([r.size for r in rows])
    member_idx = (np.concatenate(rows) if rows
                  else np.empty(0, dtype=ring.index_dtype))
    return GroupSet(np.asarray(leaders), _narrow_indptr(ring, indptr),
                    member_idx, ring.n)


def build_groups_fast(
    ring: Ring,
    params: SystemParams,
    rng: np.random.Generator,
    n_groups: int | None = None,
    solicit: int | None = None,
    kernel: str = "vectorized",
) -> GroupSet:
    """Monte-Carlo variant of :func:`build_groups`.

    Replaces per-point oracle calls with one vectorized uniform draw — the
    distribution is identical under the random-oracle assumption (see
    ``hashing.RandomOracle.uniform_stream``), and it is the only way to run
    the large-n sweeps.  Cross-checked against :func:`build_groups` in the
    test suite.

    Both kernels consume the stream of one ``rng.random((ng, m))`` draw
    and build identical CSR arrays, so downstream streams and tables do not
    depend on the kernel choice.  The vectorized kernel draws those points
    in row blocks (:func:`~repro.idspace.ring.row_blocks`): consecutive
    ``rng.random`` draws give the same values, and leave the generator in
    the same state, as the one draw, and no ``(ng, m)`` point array is
    held.
    """
    _require_kernel(kernel)
    ng = ring.n if n_groups is None else int(n_groups)
    m = params.group_solicit_size if solicit is None else int(solicit)
    leaders = np.arange(ng, dtype=np.int64) % ring.n
    if kernel == "vectorized":
        blocks = (rng.random((rows.stop - rows.start, m))
                  for rows in row_blocks(ng, m))
        indptr, member_idx = _points_to_csr(ring, blocks, ng, m)
        return GroupSet(leaders, indptr, member_idx, ring.n)
    pts = rng.random((ng, m))
    idx = ring.successor_index_many(pts.ravel()).reshape(ng, m)
    idx.sort(axis=1)
    rows = [np.unique(idx[g]) for g in range(ng)]
    indptr = np.zeros(ng + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([r.size for r in rows])
    member_idx = (np.concatenate(rows) if rows
                  else np.empty(0, dtype=ring.index_dtype))
    return GroupSet(leaders, _narrow_indptr(ring, indptr), member_idx, ring.n)


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
    n_bad = groups.bad_counts(bad_mask)
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(sizes > 0, n_bad / np.maximum(sizes, 1), 1.0)
    too_small = sizes < (params.group_min_size if min_size is None else int(min_size))
    too_corrupt = frac > (
        params.bad_member_threshold if threshold is None else float(threshold)
    )
    return GroupQuality(is_bad=too_small | too_corrupt, bad_fraction=frac, sizes=sizes)
