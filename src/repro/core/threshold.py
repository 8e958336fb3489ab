"""Phase I threshold selection.

The paper chooses thresholds *empirically* (§III-A) and observes that
total time is convex in the threshold (§V-B d, Fig 8): ``t = 0`` pushes
all work to the CPU (≈ MKL time), the maximum threshold reduces the
algorithm to [13].  This module provides:

- a **fast analytic estimator** of HH-CPU's phase times for candidate
  thresholds — no numeric multiply — built from the same cost models
  the simulator charges.  It sweeps all candidates in one pass: a few
  O(nnz) grouped sums per block of candidates, then O(rows) each;
- :func:`select_threshold`, the argmin over a quantile candidate grid
  (the library's default "empirical" pick);
- :func:`sweep_thresholds`, the full curve behind Fig 8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.costmodel.context import ProductContext
from repro.costmodel.cpu_cost import cpu_merge_time, cpu_spmm_time
from repro.costmodel.gpu_cost import gpu_spmm_time
from repro.formats.base import INDEX_DTYPE
from repro.formats.csr import CSRMatrix
from repro.hardware.platform import HeteroPlatform, default_platform
from repro.hetero.partition import threshold_candidates
from repro.kernels.symbolic import KernelStats, reuse_curve


@dataclass(frozen=True)
class EstimatedTimes:
    """Analytic phase-time estimate for one threshold choice."""

    threshold_a: int
    threshold_b: int
    phase2_cpu: float
    phase2_gpu: float
    phase3: float
    phase4: float

    @property
    def phase2(self) -> float:
        """Overlapped Phase II time (devices run concurrently)."""
        return max(self.phase2_cpu, self.phase2_gpu)

    @property
    def total(self) -> float:
        """Phases II + III + IV (Phase I is threshold-independent and
        tiny; Fig 8 plots II, III and the total)."""
        return self.phase2 + self.phase3 + self.phase4


def _tuple_estimate(row_work: np.ndarray, ncols: int) -> int:
    """Birthday-collision estimate of the locally merged output tuples,
    ``sum(n * (1 - exp(-work / n)))`` over rows with ``n = ncols``,
    computed in one buffer."""
    n = float(max(ncols, 1))
    est = np.negative(row_work) / n
    np.exp(est, out=est)
    np.subtract(1.0, est, out=est)
    np.multiply(n, est, out=est)
    return int(np.sum(est))


class ProductProfile:
    """Reusable O(nnz) arrays for estimating any (row set) x (B class).

    Shared by the threshold selector and the baselines' static-split
    search — any algorithm that must predict work without multiplying.
    """

    def __init__(self, a: CSRMatrix, b: CSRMatrix):
        self.a = a
        self.b = b
        self.a_sizes = a.row_nnz()
        self.b_sizes = b.row_nnz()
        self.row_of = np.repeat(np.arange(a.nrows, dtype=INDEX_DTYPE), self.a_sizes)
        self.entry_work = self.b_sizes[a.indices]  # B-row length per A entry

    def stats_for(self, a_row_mask: np.ndarray, b_row_mask: np.ndarray) -> KernelStats:
        """Estimated :class:`KernelStats` of ``A[mask] @ (B * b_mask)``.

        Output-tuple counts use a birthday-collision estimate
        ``ncols * (1 - exp(-work / ncols))`` per row, which tracks the
        real locally-merged nnz closely for random column patterns.
        """
        keep = a_row_mask[self.row_of] & b_row_mask[self.a.indices]
        a_entries = int(np.count_nonzero(keep))
        work = np.where(keep, self.entry_work, 0)
        per_row = np.bincount(self.row_of, weights=work, minlength=self.a.nrows)
        rows_sel = np.flatnonzero(a_row_mask)
        row_work = per_row[rows_sel].astype(INDEX_DTYPE)
        tuples = _tuple_estimate(row_work, self.b.ncols)
        refs = np.bincount(self.a.indices[keep], minlength=self.b.nrows)
        return KernelStats.for_product(
            a_entries, row_work, tuples, tuples,
            b_reuse_curve=reuse_curve(refs, self.b_sizes),
        )


def _suffix_rows(
    bins: np.ndarray,
    nbins: int,
    cells: np.ndarray,
    ncells: int,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Bin-major suffix sums: ``out[i, x]`` totals ``weights`` (or counts)
    over the entries at cell ``x`` whose bin exceeds ``i``.

    An entry's bin is how many of ``nbins`` ascending thresholds its
    value exceeds.  One grouped ``bincount`` sums every (bin, cell)
    pair, and a reverse cumulative sum over the bins turns "exceeds
    exactly ``g`` thresholds" into "exceeds threshold ``i``".  Sums of
    integers stay exact in float64, so each row equals the masked sum
    for its threshold bit for bit.
    """
    counts = np.bincount(
        bins * ncells + cells, weights=weights, minlength=(nbins + 1) * ncells
    ).reshape(nbins + 1, ncells)
    out = counts[1:]
    for i in range(nbins - 2, -1, -1):  # row by row: cumsum along axis 0 is slow
        out[i] += out[i + 1]
    return out


def _quadrant_stats(
    prof: ProductProfile,
    rows: np.ndarray,
    work: np.ndarray,
    refs: np.ndarray,
) -> KernelStats:
    """:meth:`ProductProfile.stats_for` of one quadrant from its A rows,
    the per-A-row work over its B class, and its per-B-row reference
    counts (which also total its A entries)."""
    row_work = work.take(rows)
    tuples = _tuple_estimate(row_work, prof.b.ncols)
    return KernelStats.for_product(
        int(refs.sum()), row_work, tuples, tuples,
        b_reuse_curve=reuse_curve(refs, prof.b_sizes),
    )


def _times(
    prof: ProductProfile,
    platform: HeteroPlatform,
    threshold_a: int,
    threshold_b: int,
    b_high: np.ndarray,
    st_hh: KernelStats,
    st_ll: KernelStats,
    st_lh: KernelStats,
    st_hl: KernelStats,
) -> EstimatedTimes:
    """Phase-time estimate from the statistics of the four quadrants
    ``A_{H|L} x B_{H|L}``."""
    b = prof.b
    calib = platform.calibration
    b_high_nnz = int(prof.b_sizes[b_high].sum())
    b_low_nnz = int(b.nnz - b_high_nnz)
    ctx_bh = ProductContext.for_b_class(b_high_nnz, int(b_high.sum()), b.ncols)
    ctx_bl = ProductContext.for_b_class(b_low_nnz, int((~b_high).sum()), b.ncols)

    # Phase II: CPU does A_H x B_H, GPU does A_L x B_L
    t2_cpu = cpu_spmm_time(st_hh, ctx_bh, platform.cpu.spec, calib)
    t2_gpu = gpu_spmm_time(st_ll, ctx_bl, platform.gpu.spec, calib)

    # Phase III: both devices share A_L x B_H and A_H x B_L; the
    # workqueue equalises finish times, so the balanced duration is the
    # parallel combination of each device's solo time over the union.
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

    tuples_total = st_hh.tuples_emitted + st_ll.tuples_emitted + st_lh.tuples_emitted + st_hl.tuples_emitted
    t4 = cpu_merge_time(tuples_total, platform.cpu.spec, calib, needs_sort=False)

    return EstimatedTimes(
        threshold_a=int(threshold_a),
        threshold_b=int(threshold_b),
        phase2_cpu=t2_cpu,
        phase2_gpu=t2_gpu,
        phase3=t3,
        phase4=t4,
    )


def _estimate_pairs(
    prof: ProductProfile,
    thresholds_a: np.ndarray,
    thresholds_b: np.ndarray,
    platform: HeteroPlatform,
) -> list[EstimatedTimes]:
    """One-pass Phase I: :class:`EstimatedTimes` for every ``(t_A, t_B)``.

    The row classes nest in the threshold, so instead of four O(nnz)
    masks per candidate (:meth:`ProductProfile.stats_for`), each block
    of candidates costs two O(nnz) grouped sums (:func:`_suffix_rows`):
    per-A-row work over the B rows above each ``t_B``, and per-B-row
    reference counts from the A rows above each ``t_A``.  The low sides
    are the totals minus these.  Each candidate then reads one
    contiguous row of each and costs O(rows).  Blocks hold about nnz(A)
    dense cells, so scratch memory does not grow with the candidate
    count.  All sums are of integers, so every statistic equals
    ``stats_for``'s bit for bit.
    """
    a, b = prof.a, prof.b
    work_total = np.bincount(prof.row_of, weights=prof.entry_work, minlength=a.nrows)
    work_total = work_total.astype(INDEX_DTYPE)
    refs_total = np.bincount(a.indices, minlength=b.nrows)
    # rank of every A entry among all thresholds: how many t_B its B row
    # exceeds, and how many t_A its own row exceeds
    all_a, all_b = np.unique(thresholds_a), np.unique(thresholds_b)
    rank_b = np.searchsorted(all_b, prof.b_sizes, side="left")[a.indices]
    rank_a = np.searchsorted(all_a, prof.a_sizes, side="left")[prof.row_of]
    # a block of k thresholds fills (k + 1) x width dense cells: ~nnz(A)
    width = max(a.nrows, b.nrows, 1)
    block = max(1, -(-a.nnz // width) - 1)
    out: list[EstimatedTimes] = []
    for start in range(0, thresholds_a.size, block):
        ts_a = thresholds_a[start:start + block]
        ts_b = thresholds_b[start:start + block]
        ua, ub = np.unique(ts_a), np.unique(ts_b)
        # a block bin counts the block's thresholds below an entry's rank
        bin_b = np.searchsorted(np.searchsorted(all_b, ub), np.arange(all_b.size + 1))
        bin_a = np.searchsorted(np.searchsorted(all_a, ua), np.arange(all_a.size + 1))
        b_bin = bin_b.take(rank_b)
        # per A row: work over the B rows above each t_B
        work_hi = _suffix_rows(
            b_bin, ub.size, prof.row_of, a.nrows, weights=prof.entry_work
        ).astype(INDEX_DTYPE)
        # per B row: references from the A rows above each t_A
        refs_hi = _suffix_rows(bin_a.take(rank_a), ua.size, a.indices, b.nrows)
        for t_a, t_b in zip(ts_a, ts_b):
            a_high = prof.a_sizes > t_a
            b_high = prof.b_sizes > t_b
            rows_hi, rows_lo = np.flatnonzero(a_high), np.flatnonzero(~a_high)
            ib, ia = int(np.searchsorted(ub, t_b)), int(np.searchsorted(ua, t_a))
            w_hi, r_hi = work_hi[ib], refs_hi[ia]
            w_lo, r_lo = work_total - w_hi, refs_total - r_hi
            out.append(_times(
                prof, platform, t_a, t_b, b_high,
                st_hh=_quadrant_stats(prof, rows_hi, w_hi, r_hi * b_high),
                st_ll=_quadrant_stats(prof, rows_lo, w_lo, r_lo * ~b_high),
                st_lh=_quadrant_stats(prof, rows_lo, w_hi, r_lo * b_high),
                st_hl=_quadrant_stats(prof, rows_hi, w_lo, r_hi * ~b_high),
            ))
    return out


def estimate_times(
    a: CSRMatrix,
    b: CSRMatrix,
    threshold_a: int,
    threshold_b: int,
    platform: HeteroPlatform | None = None,
    *,
    profile: ProductProfile | None = None,
) -> EstimatedTimes:
    """Analytic HH-CPU phase-time estimate for one (t_A, t_B) pair."""
    platform = platform or default_platform()
    prof = profile if profile is not None else ProductProfile(a, b)
    return _estimate_pairs(
        prof, np.array([threshold_a]), np.array([threshold_b]), platform
    )[0]


def sweep_thresholds(
    a: CSRMatrix,
    b: CSRMatrix,
    platform: HeteroPlatform | None = None,
    *,
    candidates: np.ndarray | None = None,
) -> list[EstimatedTimes]:
    """Estimate phase times across a threshold grid (Fig 8's fast mode).

    Uses one threshold for both operands, as the paper's self-product
    experiments (A x A) imply ``t_A = t_B``.
    """
    platform = platform or default_platform()
    if candidates is None:
        candidates = threshold_candidates(a)
    cands = np.asarray(candidates, dtype=np.int64).ravel()
    return _estimate_pairs(ProductProfile(a, b), cands, cands, platform)


def select_threshold(
    a: CSRMatrix,
    b: CSRMatrix,
    platform: HeteroPlatform | None = None,
    *,
    candidates: np.ndarray | None = None,
) -> tuple[int, int]:
    """The library's "empirical" Phase I pick: the candidate minimising
    the estimated total time.  Returns ``(t_A, t_B)`` (equal by
    construction; callers may override either)."""
    sweep = sweep_thresholds(a, b, platform, candidates=candidates)
    best = min(sweep, key=lambda e: e.total)
    return best.threshold_a, best.threshold_b
