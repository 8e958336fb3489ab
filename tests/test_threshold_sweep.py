"""The one-pass Phase I sweep equals the per-candidate estimator exactly.

``reference_estimate`` below is the straightforward estimator: four
masked O(nnz(A)) passes per candidate, as ``ProductProfile.stats_for``
makes them, with the float-keyed reuse curve.  The
library's sweep computes the same statistics for every candidate from
grouped suffix sums; every field must come out ``==``, not approximately.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.threshold import (
    EstimatedTimes,
    ProductProfile,
    estimate_times,
    select_threshold,
    sweep_thresholds,
)
from repro.costmodel.context import ProductContext
from repro.costmodel.cpu_cost import cpu_merge_time, cpu_spmm_time
from repro.costmodel.gpu_cost import gpu_spmm_time
from repro.formats.csr import CSRMatrix
from repro.hardware.platform import default_platform, platform_for_scale
from repro.hetero.partition import threshold_candidates
from repro.kernels.symbolic import KernelStats
from repro.scalefree import powerlaw_matrix

from tests.test_kernels_symbolic import float_key_curve


def reference_stats_for(prof, a_row_mask, b_row_mask):
    """``ProductProfile.stats_for`` as a plain masked O(nnz) pass."""
    keep = a_row_mask[prof.row_of] & b_row_mask[prof.a.indices]
    work = np.where(keep, prof.entry_work, 0)
    per_row = np.bincount(prof.row_of, weights=work, minlength=prof.a.nrows)
    row_work = per_row[np.flatnonzero(a_row_mask)].astype(np.int64)
    n = float(max(prof.b.ncols, 1))
    tuples = int(np.sum(n * (1.0 - np.exp(-row_work / n))))
    refs = np.bincount(prof.a.indices[keep], minlength=prof.b.nrows)
    return KernelStats.for_product(
        int(np.count_nonzero(keep)), row_work, tuples, tuples,
        b_reuse_curve=float_key_curve(refs, prof.b_sizes),
    )


def reference_estimate(a, b, threshold_a, threshold_b, platform, prof):
    """Per-candidate estimate from four O(nnz) masked passes."""
    calib = platform.calibration
    a_high = prof.a_sizes > threshold_a
    b_high = prof.b_sizes > threshold_b
    b_high_nnz = int(prof.b_sizes[b_high].sum())
    b_low_nnz = int(b.nnz - b_high_nnz)
    ctx_bh = ProductContext.for_b_class(b_high_nnz, int(b_high.sum()), b.ncols)
    ctx_bl = ProductContext.for_b_class(b_low_nnz, int((~b_high).sum()), b.ncols)
    st_hh = reference_stats_for(prof, a_high, b_high)
    st_ll = reference_stats_for(prof, ~a_high, ~b_high)
    t2_cpu = cpu_spmm_time(st_hh, ctx_bh, platform.cpu.spec, calib)
    t2_gpu = gpu_spmm_time(st_ll, ctx_bl, platform.gpu.spec, calib)
    st_lh = reference_stats_for(prof, ~a_high, b_high)
    st_hl = reference_stats_for(prof, a_high, ~b_high)
    cpu_solo = cpu_spmm_time(st_lh, ctx_bh, platform.cpu.spec, calib) + cpu_spmm_time(
        st_hl, ctx_bl, platform.cpu.spec, calib
    )
    gpu_solo = gpu_spmm_time(st_lh, ctx_bh, platform.gpu.spec, calib) + gpu_spmm_time(
        st_hl, ctx_bl, platform.gpu.spec, calib
    )
    if cpu_solo + gpu_solo > 0:
        t3 = 1.0 / (1.0 / max(cpu_solo, 1e-30) + 1.0 / max(gpu_solo, 1e-30))
    else:
        t3 = 0.0
    tuples = sum(s.tuples_emitted for s in (st_hh, st_ll, st_lh, st_hl))
    t4 = cpu_merge_time(tuples, platform.cpu.spec, calib, needs_sort=False)
    return EstimatedTimes(int(threshold_a), int(threshold_b), t2_cpu, t2_gpu, t3, t4)


def reference_sweep(a, b, platform, candidates=None):
    if candidates is None:
        candidates = threshold_candidates(a)
    prof = ProductProfile(a, b)
    return [reference_estimate(a, b, int(t), int(t), platform, prof) for t in candidates]


def csr_from_sizes(sizes, ncols, seed, skew):
    """CSR with the given row sizes; columns drawn with a power-law skew
    so some B rows are referenced far more often than others."""
    rng = np.random.default_rng(seed)
    sizes = np.minimum(np.asarray(sizes, dtype=np.int64), ncols)
    weights = 1.0 / np.arange(1, ncols + 1) ** skew
    weights /= weights.sum()
    indices = np.concatenate(
        [np.sort(rng.choice(ncols, size=int(k), replace=False, p=weights)) for k in sizes]
        or [np.zeros(0, dtype=np.int64)]
    ).astype(np.int64)
    indptr = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    return CSRMatrix((sizes.size, ncols), indptr, indices, rng.standard_normal(indices.size))


@st.composite
def operand_pairs(draw):
    m = draw(st.integers(1, 30))
    k = draw(st.integers(1, 30))
    n = draw(st.integers(1, 30))
    size = st.integers(0, 12)
    a_sizes = draw(st.lists(size, min_size=m, max_size=m))
    b_sizes = draw(st.lists(size, min_size=k, max_size=k))
    seed = draw(st.integers(0, 2**16))
    skew = draw(st.sampled_from([0.0, 1.0, 2.0]))
    a = csr_from_sizes(a_sizes, k, seed, skew)
    b = csr_from_sizes(b_sizes, n, seed + 1, skew)
    return a, b


PLATFORMS = st.sampled_from([0.0005, 0.01, 1.0])


@settings(max_examples=60, deadline=None)
@given(operand_pairs(), PLATFORMS)
def test_sweep_equals_reference(pair, scale):
    a, b = pair
    pf = platform_for_scale(scale)
    assert sweep_thresholds(a, b, pf) == reference_sweep(a, b, pf)


@settings(max_examples=40, deadline=None)
@given(
    operand_pairs(),
    st.lists(st.integers(0, 14), min_size=1, max_size=12),
    PLATFORMS,
)
def test_explicit_candidates_equal_reference(pair, candidates, scale):
    """Any order, duplicates, a single candidate, values past max(row)."""
    a, b = pair
    pf = platform_for_scale(scale)
    cands = np.array(candidates)
    assert sweep_thresholds(a, b, pf, candidates=cands) == reference_sweep(a, b, pf, cands)


@settings(max_examples=40, deadline=None)
@given(operand_pairs(), st.integers(0, 13), st.integers(0, 13), PLATFORMS)
def test_estimate_times_distinct_thresholds(pair, t_a, t_b, scale):
    a, b = pair
    pf = platform_for_scale(scale)
    prof = ProductProfile(a, b)
    assert estimate_times(a, b, t_a, t_b, pf) == reference_estimate(a, b, t_a, t_b, pf, prof)


def test_all_empty_a():
    a = CSRMatrix.empty((7, 5))
    b = csr_from_sizes([3, 0, 2, 5, 1], 6, 1, 1.0)
    pf = default_platform()
    assert sweep_thresholds(a, b, pf) == reference_sweep(a, b, pf)
    assert select_threshold(a, b, pf) == (0, 0)


def test_scale_free_product_many_blocks():
    """Enough rows and candidates that the sweep runs in several blocks."""
    a = powerlaw_matrix(3000, alpha=2.2, target_nnz=9000, hub_bias=0.5, rng=11)
    b = powerlaw_matrix(3000, alpha=2.6, target_nnz=12000, hub_bias=0.3, rng=12)
    pf = platform_for_scale(0.01)
    assert len(threshold_candidates(a)) > 4
    assert sweep_thresholds(a, b, pf) == reference_sweep(a, b, pf)


@pytest.mark.parametrize("t", [0, 1, 3])
def test_single_candidate(small_scalefree, t):
    pf = platform_for_scale(0.001)
    a = small_scalefree
    got = sweep_thresholds(a, a, pf, candidates=np.array([t]))
    assert got == reference_sweep(a, a, pf, [t])
    assert got == [estimate_times(a, a, t, t, pf)]


def test_sweep_blocks_stay_near_nnz(monkeypatch):
    """Dense bins x rows scratch is built per block of candidates, never
    for all candidates at once."""
    import repro.core.threshold as threshold

    cells = []
    real = threshold._suffix_rows

    def recording(bins, nbins, idx, ncells, weights=None):
        out = real(bins, nbins, idx, ncells, weights)
        cells.append((nbins + 1) * ncells)
        return out

    monkeypatch.setattr(threshold, "_suffix_rows", recording)
    a = powerlaw_matrix(3000, alpha=2.2, target_nnz=9000, hub_bias=0.5, rng=11)
    candidates = np.arange(40)
    sweep_thresholds(a, a, platform_for_scale(0.01), candidates=candidates)
    assert len(cells) > 2
    assert max(cells) <= a.nnz + a.nrows
