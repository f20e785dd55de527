"""The CSR kernel of every group and neighbor list (paper §I-C, §III-A).

A group ``G_w`` is the deduplicated set of ``suc(h(w, i))``.  Hashed
groups, an epoch's good members and an input graph's neighbor sets are
all stored as CSR: a flat array cut into rows by ``indptr``, row ``i``
being ``flat[indptr[i]:indptr[i + 1]]``, and all are built and read
through the functions here.
"""

from __future__ import annotations

import numpy as np

__all__ = ["distinct_rows", "indptr_of", "row_counts", "row_reduce"]


def distinct_rows(
    rows: np.ndarray, drop: int | np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``rows`` as its distinct values, ascending, less ``drop``.

    Returns ``(counts, flat)``: each row's number of kept values, and the
    kept values, rows concatenated, at ``rows``' dtype — per row exactly
    ``np.unique(row[row != drop])``.  ``drop`` is ``None``, one value (the
    sentinel of unselected slots) or one value per row (each row's own
    index).  ``rows`` is sorted in place: pass a copy of an array that
    must keep its order.  After the sort a repeat equals its left
    neighbor in the same row, so one flat keep mask drops the repeats
    and ``drop``, and no row is deduplicated on its own.
    """
    r, m = rows.shape
    if not rows.size:
        return np.zeros(r, dtype=np.intp), rows.ravel()
    rows.sort(axis=1)
    flat = rows.ravel()
    keep = np.empty(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    keep[::m] = True
    if drop is not None:
        kept = keep.reshape(r, m)
        kept &= rows != (np.reshape(drop, (-1, 1)) if np.ndim(drop) else drop)
    dropped = np.flatnonzero(~keep)
    return m - np.bincount(dropped // m, minlength=r), flat[keep]


def indptr_of(counts: np.ndarray, dtype=np.int64) -> np.ndarray:
    """The row pointers ``[0, c0, c0 + c1, ...]`` of rows of ``counts``
    values, summed at ``dtype``, which must hold the total."""
    indptr = np.zeros(len(counts) + 1, dtype=dtype)
    np.cumsum(counts, out=indptr[1:], dtype=dtype)
    return indptr


def row_counts(indptr: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """How many of the flat ``positions`` fall in each row, as int64.

    Given ``np.flatnonzero(flags)``, it counts each row's true flags from
    their positions alone, with no int64 value per flag.  A position's
    row is the last one starting at or before it (an empty row shares its
    start with the next row, so ``side="right"`` lands past it)."""
    rows = np.searchsorted(indptr, positions, side="right")
    rows -= 1
    return np.bincount(rows, minlength=indptr.size - 1)


def row_reduce(ufunc: np.ufunc, indptr: np.ndarray,
               values: np.ndarray) -> np.ndarray:
    """``ufunc`` over each row of ``values`` (``np.add``: row sums,
    ``np.logical_or``: any).  ``reduceat`` gets only the non-empty rows'
    starts, so an empty row reads zero, not the next row's first value."""
    out = np.zeros(indptr.size - 1, dtype=values.dtype)
    if values.size:
        nonempty = indptr[1:] > indptr[:-1]
        out[nonempty] = ufunc.reduceat(values, indptr[:-1][nonempty])
    return out
