"""Tests for the Phase IV tuple merge (sort/mark/reduce)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.formats import COOMatrix, concatenate_triplets
from repro.formats.base import INDEX_DTYPE
from repro.kernels import mark_master_indices, merge_tuples


def coo_random(m, n, density, seed):
    return COOMatrix.from_scipy(sp.random(m, n, density=density, random_state=seed,
                                          format="coo"))


class TestMarkScan:
    def test_mark_first_of_each_run(self):
        keys = np.array([1, 1, 2, 5, 5, 5, 9])
        np.testing.assert_array_equal(
            mark_master_indices(keys), [1, 0, 1, 1, 0, 0, 1]
        )

    def test_mark_empty(self):
        assert mark_master_indices(np.array([], dtype=np.int64)).size == 0

    def test_mark_all_distinct(self):
        assert mark_master_indices(np.array([1, 2, 3])).all()


class TestMerge:
    def test_single_part(self):
        part = coo_random(12, 9, 0.3, 1)
        out = merge_tuples((12, 9), [part])
        np.testing.assert_allclose(out.matrix.todense(), part.todense())

    def test_multiple_overlapping_parts(self):
        parts = [coo_random(10, 10, 0.25, s) for s in (1, 2, 3)]
        out = merge_tuples((10, 10), parts)
        ref = sum(p.todense() for p in parts)
        np.testing.assert_allclose(out.matrix.todense(), ref)

    def test_stats_counts(self):
        a = COOMatrix((2, 2), [0, 0, 1], [0, 0, 1], [1.0, 2.0, 3.0])
        out = merge_tuples((2, 2), [a])
        assert out.stats.tuples_in == 3
        assert out.stats.masters == 2
        assert out.stats.max_run == 2
        assert out.stats.reduce_ops == 1
        assert out.stats.duplication_ratio == pytest.approx(1.5)

    def test_empty(self):
        out = merge_tuples((4, 4), [])
        assert out.matrix.nnz == 0
        assert out.stats.tuples_in == 0
        assert out.stats.duplication_ratio == 0.0

    def test_drop_zeros(self):
        a = COOMatrix((1, 1), [0, 0], [0, 0], [2.0, -2.0])
        kept = merge_tuples((1, 1), [a], drop_zeros=False)
        dropped = merge_tuples((1, 1), [a], drop_zeros=True)
        assert kept.matrix.nnz == 1
        assert dropped.matrix.nnz == 0

    def test_result_is_valid_sorted_csr(self):
        parts = [coo_random(30, 20, 0.2, s) for s in (5, 6)]
        out = merge_tuples((30, 20), parts)
        out.matrix.validate()
        assert out.matrix.has_sorted_indices

    def test_matches_canonicalize(self):
        parts = [coo_random(15, 15, 0.3, s) for s in (7, 8, 9)]
        out = merge_tuples((15, 15), parts)
        from repro.formats import concatenate_triplets

        canon = concatenate_triplets((15, 15), parts).canonicalize(drop_zeros=False)
        assert out.matrix.allclose(canon)

    def test_sort_ops_scale(self):
        big = coo_random(50, 50, 0.4, 10)
        small = coo_random(5, 5, 0.4, 11)
        sb = merge_tuples((50, 50), [big]).stats
        ss = merge_tuples((5, 5), [small]).stats
        assert sb.sort_ops > ss.sort_ops


def reference_merge(shape, parts, drop_zeros=False):
    """The straightforward merge: stable argsort of every tuple's key,
    a reduction over every run, keys split by division.  Returns
    ``(indptr, indices, data, masters, max_run)``."""
    nrows, ncols = shape
    merged = concatenate_triplets(shape, list(parts))
    keys = merged.row * INDEX_DTYPE(max(ncols, 1)) + merged.col
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], merged.data[order]
    head = np.ones(keys.size, dtype=bool)
    head[1:] = keys[1:] != keys[:-1]
    masters = np.flatnonzero(head)
    summed = np.add.reduceat(vals, masters) if keys.size else vals
    ukeys = keys[masters]
    runs = np.diff(np.append(masters, keys.size))
    if drop_zeros:
        keep = summed != 0.0
        ukeys, summed = ukeys[keep], summed[keep]
    indptr = np.zeros(nrows + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(ukeys // max(ncols, 1), minlength=nrows), out=indptr[1:])
    max_run = int(runs.max()) if runs.size else 0
    return indptr, ukeys % max(ncols, 1), summed, masters.size, max_run


def assert_bit_identical(shape, parts, drop_zeros=False):
    out = merge_tuples(shape, parts, drop_zeros=drop_zeros)
    indptr, indices, data, masters, max_run = reference_merge(shape, parts, drop_zeros)
    np.testing.assert_array_equal(out.matrix.indptr, indptr)
    np.testing.assert_array_equal(out.matrix.indices, indices)
    # bit patterns, not values: the summation order must not change
    np.testing.assert_array_equal(out.matrix.data.view(np.int64), data.view(np.int64))
    tuples_in = sum(p.nnz for p in parts)
    assert out.stats.tuples_in == tuples_in
    assert out.stats.masters == masters
    assert out.stats.reduce_ops == tuples_in - masters
    assert out.stats.max_run == max_run
    return out


def coo(shape, row, col, data):
    return COOMatrix(shape, np.asarray(row), np.asarray(col), np.asarray(data, dtype=float))


class TestMergeAgainstReference:
    def test_three_overlapping_parts_long_runs(self):
        rng = np.random.default_rng(3)
        shape = (40, 30)
        base = coo_random(*shape, 0.3, 4)
        parts = []
        for _ in range(3):
            # the same keys in every part, each key repeated within a part too
            row = np.concatenate([base.row, base.row[::3]])
            col = np.concatenate([base.col, base.col[::3]])
            parts.append(coo(shape, row, col, rng.standard_normal(row.size)))
        out = assert_bit_identical(shape, parts)
        assert out.stats.max_run == 6
        assert out.stats.reduce_ops == 3 * (base.nnz + base.row[::3].size) - base.nnz

    def test_part_not_sorted_by_key(self):
        rng = np.random.default_rng(5)
        shape = (25, 25)
        part = coo_random(*shape, 0.4, 6)
        perm = rng.permutation(part.nnz)
        shuffled = coo(shape, part.row[perm], part.col[perm], part.data[perm])
        assert_bit_identical(shape, [shuffled, coo_random(*shape, 0.4, 7)])

    def test_empty_parts_mixed_in(self):
        shape = (10, 12)
        empty = coo(shape, [], [], [])
        parts = [empty, coo_random(*shape, 0.3, 8), empty, coo_random(*shape, 0.3, 9)]
        assert_bit_identical(shape, parts)

    def test_only_empty_parts(self):
        shape = (6, 4)
        out = merge_tuples(shape, [coo(shape, [], [], [])] * 3)
        assert out.matrix.nnz == 0
        assert out.matrix.shape == shape
        assert out.stats.max_run == 0 and out.stats.masters == 0

    def test_no_duplicates_skips_reduction(self):
        shape = (20, 20)
        part = coo_random(*shape, 0.3, 10)
        out = assert_bit_identical(shape, [part])
        assert out.stats.reduce_ops == 0
        assert out.stats.max_run == 1

    def test_drop_zeros_exact(self):
        shape = (3, 3)
        a = coo(shape, [0, 1, 2, 2], [0, 1, 2, 0], [1.5, 2.0, 4.0, 1.0])
        b = coo(shape, [0, 1, 2], [0, 1, 2], [-1.5, 1.0, -4.0])
        out = assert_bit_identical(shape, [a, b], drop_zeros=True)
        assert out.matrix.nnz == 2
        assert out.stats.masters == 4
        assert out.stats.reduce_ops == 3
        assert out.stats.max_run == 2

    def test_runs_at_both_ends(self):
        shape = (2, 2)
        a = coo(shape, [0, 0, 0, 1, 1], [0, 0, 0, 1, 1], [0.1, 0.2, 0.3, 0.7, 1e16])
        b = coo(shape, [1], [1], [-1e16])
        out = assert_bit_identical(shape, [a, b])
        assert out.stats.max_run == 3
        assert out.stats.reduce_ops == 4

    def test_bad_part_shape_refused(self):
        from repro.util.errors import FormatError

        with pytest.raises(FormatError):
            merge_tuples((3, 3), [coo((3, 4), [0], [0], [1.0])])


@st.composite
def tuple_streams(draw):
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    parts = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(0, 12))
        row = draw(st.lists(st.integers(0, nrows - 1), min_size=n, max_size=n))
        col = draw(st.lists(st.integers(0, ncols - 1), min_size=n, max_size=n))
        vals = draw(st.lists(
            st.sampled_from([0.0, 1.0, -1.0, 0.1, 0.2, 0.3, 1e16, -1e16]),
            min_size=n, max_size=n,
        ))
        parts.append(coo((nrows, ncols), row, col, vals))
    return (nrows, ncols), parts


@settings(max_examples=80, deadline=None)
@given(tuple_streams(), st.booleans())
def test_merge_bit_identical_to_reference(streams, drop_zeros):
    shape, parts = streams
    assert_bit_identical(shape, parts, drop_zeros)
