"""Unit tests: the CSR kernel (repro.idspace.csr) against per-row loops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.idspace.csr import distinct_rows, indptr_of, row_counts, row_reduce


def unique_loop(rows, drop=None):
    """``(counts, flat)`` of ``np.unique(row[row != drop])`` per row;
    ``drop`` is None, one value, or one value per row."""
    drops = np.broadcast_to(np.asarray(drop, dtype=object), (len(rows),))
    kept = [np.unique(row if d is None else row[row != d])
            for row, d in zip(rows, drops)]
    flat = np.concatenate(kept) if kept else np.empty(0, dtype=rows.dtype)
    return np.array([k.size for k in kept], dtype=np.intp), flat


def reduce_loop(ufunc, indptr, values):
    """``ufunc.reduce`` over each row, one row at a time."""
    return np.array([ufunc.reduce(values[a:b])
                     for a, b in zip(indptr[:-1], indptr[1:])],
                    dtype=values.dtype)


def assert_row_counts(indptr, flags):
    """``row_counts`` of the true flags' positions equals the int64 row
    sum of the flags."""
    got = row_counts(indptr, np.flatnonzero(flags))
    want = row_reduce(np.add, indptr, flags.astype(np.int64))
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


def assert_distinct_rows(rows, drop=None):
    want_counts, want_flat = unique_loop(rows, drop)
    counts, flat = distinct_rows(rows.copy(), drop)
    assert flat.dtype == rows.dtype
    assert np.array_equal(counts, want_counts)
    assert np.array_equal(flat, want_flat)
    return counts, flat


class TestDistinctRows:
    POOL = 40  # candidates lie in [0, POOL); POOL marks an unselected slot

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_selected_slots_match_unique_loop(self, dtype):
        rng = np.random.default_rng(11)
        cand = rng.integers(0, self.POOL, (30, 9)).astype(dtype)
        selected = rng.random(cand.shape) < 0.6
        cand[2], selected[2] = 7, True                # one ID in every slot
        cand[3], selected[3] = self.POOL - 1, True    # the top ID, repeated
        cand[4, ::2], selected[4] = 5, rng.random(9) < 0.5
        selected[5] = False                           # nothing selected
        counts, flat = assert_distinct_rows(
            np.where(selected, cand, self.POOL).astype(dtype), self.POOL)
        assert counts[2] == counts[3] == 1 and counts[5] == 0
        assert not (flat == self.POOL).any()

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_without_drop_keeps_every_distinct_value(self, dtype):
        rows = np.random.default_rng(4).integers(0, 6, (25, 7)).astype(dtype)
        rows[0] = 3
        assert assert_distinct_rows(rows)[0][0] == 1

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_own_index_dropped(self, dtype):
        rows = np.random.default_rng(9).integers(0, 8, (8, 6)).astype(dtype)
        rows[:, :3] = np.arange(8)[:, None]   # each row names itself thrice
        rows[7] = 7                           # a row of nothing but itself
        counts, _ = assert_distinct_rows(
            rows, np.arange(8, dtype=dtype))
        assert counts[7] == 0

    @pytest.mark.parametrize("shape", [(6, 5), (6, 0), (0, 5)])
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_empty_selection(self, shape, dtype):
        """All slots unselected: no values, zero counts, and the flat
        array keeps the rows' dtype, as a non-empty selection does."""
        counts, flat = distinct_rows(
            np.full(shape, self.POOL, dtype=dtype), self.POOL)
        assert flat.dtype == dtype and flat.size == 0
        assert np.array_equal(counts, np.zeros(shape[0], dtype=np.intp))

    def test_sorts_rows_in_place(self):
        rows = np.array([[3, 1, 2], [2, 2, 0]])
        distinct_rows(rows)
        assert np.array_equal(rows, [[1, 2, 3], [0, 2, 2]])


@st.composite
def row_matrices(draw):
    """A small integer matrix and a drop rule: none, a sentinel above
    every entry marking unselected slots, or each row's own index (a tiny
    ring's self-fingers, which repeat)."""
    r = draw(st.integers(0, 10))
    m = draw(st.integers(0, 8))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    mode = draw(st.sampled_from(["none", "sentinel", "self"]))
    top = max(r, 1) if mode == "self" else draw(st.integers(1, 12))
    cells = st.lists(st.integers(0, top - 1), min_size=r * m, max_size=r * m)
    rows = np.array(draw(cells), dtype=dtype).reshape(r, m)
    if mode == "sentinel":
        unselected = np.array(draw(st.lists(st.booleans(), min_size=r * m,
                                            max_size=r * m)), dtype=bool)
        rows[unselected.reshape(r, m)] = top
        return rows, top
    if mode == "self":
        self_slots = np.array(draw(st.lists(st.booleans(), min_size=r * m,
                                            max_size=r * m)), dtype=bool)
        rows[self_slots.reshape(r, m)] = np.repeat(np.arange(r), m)[self_slots]
        return rows, np.arange(r, dtype=dtype)
    return rows, None


@given(case=row_matrices())
@settings(max_examples=200, deadline=None)
def test_distinct_rows_is_per_row_unique(case):
    assert_distinct_rows(*case)


@st.composite
def csr_rows(draw):
    """Row lengths (empty rows included), the row pointers at a drawn
    dtype, and ``np.add`` over int64 or ``np.logical_or`` over bool
    values."""
    counts = np.array(draw(st.lists(st.integers(0, 4), max_size=12)),
                      dtype=np.int64)
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    indptr = indptr_of(counts, dtype)
    total = int(counts.sum())
    ufunc = draw(st.sampled_from([np.add, np.logical_or]))
    if ufunc is np.add:
        values = np.array(draw(st.lists(st.integers(-5, 5), min_size=total,
                                        max_size=total)), dtype=np.int64)
    else:
        values = np.array(draw(st.lists(st.booleans(), min_size=total,
                                        max_size=total)), dtype=bool)
    return ufunc, counts, dtype, indptr, values


@given(case=csr_rows())
@settings(max_examples=200, deadline=None)
def test_row_reduce_is_per_row_loop(case):
    ufunc, counts, dtype, indptr, values = case
    assert indptr.dtype == dtype
    assert np.array_equal(indptr, np.concatenate([[0], np.cumsum(counts)]))
    got = row_reduce(ufunc, indptr, values)
    assert got.dtype == values.dtype
    assert np.array_equal(got, reduce_loop(ufunc, indptr, values))
    assert_row_counts(indptr, values != 0)


@given(case=csr_rows(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_row_counts_is_per_row_loop(case, data):
    _, counts, _, indptr, _ = case
    total = int(counts.sum())
    positions = np.array(sorted(data.draw(st.sets(
        st.integers(0, max(total - 1, 0)), max_size=total))), dtype=np.int64)
    got = row_counts(indptr, positions)
    want = [np.count_nonzero((positions >= a) & (positions < b))
            for a, b in zip(indptr[:-1], indptr[1:])]
    assert got.dtype == np.int64
    assert got.tolist() == want


class TestRowReduce:
    @pytest.mark.parametrize("ufunc", [np.logical_or, np.add])
    @pytest.mark.parametrize("fill", ["random", "none", "all"])
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_empty_rows_at_both_ends_and_inside(self, ufunc, fill, dtype):
        rng = np.random.default_rng(5)
        deg = rng.integers(0, 4, 40)
        deg[[0, 1, 17, 38, 39]] = 0       # empty rows at both ends and inside
        deg[20] = 1
        indptr = indptr_of(deg, dtype)
        assert indptr.dtype == dtype
        flags = {
            "random": rng.random(int(indptr[-1])) < 0.3,
            "none": np.zeros(int(indptr[-1]), dtype=bool),
            "all": np.ones(int(indptr[-1]), dtype=bool),
        }[fill]
        values = flags if ufunc is np.logical_or else flags.astype(np.int64)
        got = row_reduce(ufunc, indptr, values)
        assert got.dtype == values.dtype
        assert np.array_equal(got, reduce_loop(ufunc, indptr, values))
        assert not got[deg == 0].any()
        assert_row_counts(indptr, flags)

    @pytest.mark.parametrize("indptr, flags", [
        ([0, 0], []), ([0, 3], [False, False, False]), ([0, 2], [False, True]),
        ([0], []), ([0, 0, 0], []),
    ])
    def test_tiny_rows(self, indptr, flags):
        indptr = np.array(indptr, dtype=np.int64)
        flags = np.array(flags, dtype=bool)
        assert np.array_equal(
            row_reduce(np.logical_or, indptr, flags),
            reduce_loop(np.logical_or, indptr, flags),
        )
        assert_row_counts(indptr, flags)
