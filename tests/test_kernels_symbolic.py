"""Tests for symbolic work estimation, KernelStats, and reuse curves."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.formats import CSRMatrix
from repro.kernels import esc_multiply, estimate_work, symbolic_nnz
from repro.kernels.symbolic import (
    ELEM_BYTES,
    REUSE_CURVE_POINTS,
    KernelStats,
    TUPLE_BYTES,
    reuse_curve,
)


def ab(seed=0, m=25, p=20, n=22, density=0.2):
    A = sp.random(m, p, density=density, random_state=seed, format="csr")
    B = sp.random(p, n, density=density, random_state=seed + 1, format="csr")
    return CSRMatrix.from_scipy(A), CSRMatrix.from_scipy(B), A, B


class TestEstimateWork:
    def test_matches_bruteforce(self):
        a, b, A, B = ab()
        est = estimate_work(a, b)
        truth = sum(
            int(B[int(k)].nnz) for i in range(a.nrows) for k in A.getrow(i).indices
        )
        assert est.total_work == truth
        assert est.flops == 2 * truth

    def test_row_restricted(self):
        a, b, A, B = ab(seed=5)
        rows = np.array([0, 5, 10])
        est = estimate_work(a, b, rows=rows)
        assert est.row_work.size == 3
        for out_i, i in enumerate(rows):
            truth = sum(int(B[int(k)].nnz) for k in A.getrow(int(i)).indices)
            assert est.row_work[out_i] == truth

    def test_empty_rows_are_zero(self):
        a = CSRMatrix.from_rows((3, 3), [([0], [1.0]), ([], []), ([2], [1.0])])
        b = CSRMatrix.from_dense(np.eye(3))
        est = estimate_work(a, b)
        assert est.row_work[1] == 0

    def test_upper_bound_holds(self):
        a, b, *_ = ab(seed=9)
        est = estimate_work(a, b)
        real = esc_multiply(a, b)
        assert real.result.nnz <= est.nnz_upper_bound

    def test_symbolic_nnz_exact(self):
        a, b, A, B = ab(seed=11)
        assert symbolic_nnz(a, b) == (A @ B).tocsr().nnz


class TestKernelStats:
    def test_for_product_accounting(self):
        stats = KernelStats.for_product(10, np.array([3, 7]), 8, 8)
        assert stats.total_work == 10
        assert stats.flops == 20
        assert stats.bytes_read == 10 * ELEM_BYTES + 10 * ELEM_BYTES
        assert stats.bytes_written == 8 * TUPLE_BYTES
        assert stats.rows_processed == 2
        assert stats.mean_b_segment == 1.0

    def test_zero_entries(self):
        stats = KernelStats.for_product(0, np.array([], dtype=np.int64), 0, 0)
        assert stats.mean_b_segment == 0.0

    def test_reuse_saved_without_curve(self):
        stats = KernelStats.for_product(1, np.array([1]), 1, 1)
        assert stats.reuse_saved_bytes(1 << 20) == 0.0


class TestReuseCurve:
    def test_no_repeats_no_savings(self):
        bc, sc = reuse_curve(np.array([1, 1, 0]), np.array([5, 5, 5]))
        assert sc[-1] == 0.0

    def test_hot_row_savings(self):
        # row 0 referenced 10 times, size 4: saves 9*4*ELEM once cached
        refs = np.array([10, 1])
        sizes = np.array([4, 100])
        bc, sc = reuse_curve(refs, sizes)
        assert sc[-1] == 9 * 4 * ELEM_BYTES
        assert bc[-1] == 4 * ELEM_BYTES

    def test_ordering_by_reference_count(self):
        refs = np.array([2, 50])
        sizes = np.array([10, 10])
        bc, sc = reuse_curve(refs, sizes)
        # the hottest row (50 refs) is cached first
        assert sc[0] == 49 * 10 * ELEM_BYTES

    def test_monotone(self):
        rng = np.random.default_rng(0)
        refs = rng.integers(0, 20, 200)
        sizes = rng.integers(1, 50, 200)
        bc, sc = reuse_curve(refs, sizes)
        assert np.all(np.diff(bc) >= 0)
        assert np.all(np.diff(sc) >= 0)

    def test_downsampled(self):
        refs = np.full(10_000, 2)
        sizes = np.ones(10_000, dtype=int)
        bc, sc = reuse_curve(refs, sizes)
        assert bc.size <= 64

    def test_interp_saturates(self):
        refs = np.array([5])
        sizes = np.array([8])
        stats = KernelStats.for_product(5, np.array([40]), 40, 40,
                                        b_reuse_curve=reuse_curve(refs, sizes))
        full = stats.reuse_saved_bytes(10**9)
        assert full == 4 * 8 * ELEM_BYTES
        assert stats.reuse_saved_bytes(1) < full


def float_key_curve(refs, sizes):
    """Reuse curve ordered by a float64 key sorted with a stable sort
    (descending references, ties by row index), accumulated in float64."""
    refs, sizes = np.asarray(refs), np.asarray(sizes)
    hot = refs > 1
    if not np.any(hot):
        return np.zeros(1), np.zeros(1)
    refs_h = refs[hot].astype(np.float64)
    sizes_h = sizes[hot].astype(np.float64)
    order = np.argsort(-refs_h, kind="stable")
    bytes_cum = np.cumsum(sizes_h[order]) * ELEM_BYTES
    saved_cum = np.cumsum((refs_h[order] - 1.0) * sizes_h[order]) * ELEM_BYTES
    if bytes_cum.size > REUSE_CURVE_POINTS:
        idx = np.unique(
            np.linspace(0, bytes_cum.size - 1, REUSE_CURVE_POINTS).astype(np.int64)
        )
        bytes_cum, saved_cum = bytes_cum[idx], saved_cum[idx]
    return bytes_cum, saved_cum


def assert_same_curve(refs, sizes):
    got, want = reuse_curve(refs, sizes), float_key_curve(refs, sizes)
    for g, w in zip(got, want):
        assert g.dtype == np.float64
        np.testing.assert_array_equal(g, w)
    return got


class TestReuseCurveOrder:
    """The integer-key sort gives the float-key order, tie for tie."""

    @pytest.mark.parametrize("top", [3, 255, 256, 2**16 - 1, 2**16, 2**20])
    def test_many_ties_any_magnitude(self, top):
        # refs >= 2**16 take a wider key than the 16-bit radix sort
        rng = np.random.default_rng(top)
        refs = rng.integers(0, 4, 5000) * (top // 3) + rng.integers(0, 2, 5000)
        refs[17] = top
        sizes = rng.integers(1, 40, 5000)
        assert_same_curve(refs, sizes)

    def test_no_hot_rows(self):
        bc, sc = assert_same_curve(np.array([0, 1, 1, 0]), np.array([3, 4, 5, 6]))
        assert bc.tolist() == [0.0] and sc.tolist() == [0.0]

    def test_one_hot_row(self):
        bc, sc = assert_same_curve(np.array([0, 1, 7, 1]), np.array([3, 4, 5, 6]))
        assert bc.tolist() == [5.0 * ELEM_BYTES]
        assert sc.tolist() == [6.0 * 5 * ELEM_BYTES]

    def test_up_to_64_hot_rows_not_downsampled(self):
        rng = np.random.default_rng(1)
        refs = rng.integers(2, 6, REUSE_CURVE_POINTS)
        bc, sc = assert_same_curve(refs, rng.integers(1, 9, refs.size))
        assert bc.size == REUSE_CURVE_POINTS

    def test_downsampled_with_ties(self):
        rng = np.random.default_rng(2)
        assert_same_curve(rng.integers(0, 9, 20_000), rng.integers(1, 30, 20_000))

    def test_float_references(self):
        refs = np.array([2.0, 9.0, 0.0, 9.0, 3.0])
        assert_same_curve(refs, np.array([1, 2, 3, 4, 5]))

    def test_narrow_integer_dtypes(self):
        refs = np.array([2, 9, 0, 9, 3, 40_000], dtype=np.int32)
        sizes = np.array([1, 2, 3, 4, 5, 60_000], dtype=np.int32)
        assert_same_curve(refs, sizes)
