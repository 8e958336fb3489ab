"""The host SpGEMM engine: ESC (expand – sort – compress) plus a flat
dense accumulator for hub rows.

The engine materialises every intermediate product ``A[i,k] * B[k,j]``
as a ``<r, c, v>`` tuple (*expand*), sorts the tuple stream by
(row, column) (*sort*), and segment-reduces like-tuples (*compress*).
It mirrors how the paper's GPU algorithm emits per-row partial
outputs, and its compress step is the same mark/master-index reduction
used in Phase IV.

Scale-free operands have a few hub rows whose expansion dwarfs the rest
(Nagasaka et al., PAPERS.md): sorting a hub row's expansion costs more
than scattering it into a dense accumulator and sweeping the touched
cells.  So one A-entry gather yields the per-row work, and every
selected row with work ``>= max(DENSE_FILL * ncols, DENSE_MIN_WORK)``
accumulates in a flat ``np.bincount`` buffer of at most
:data:`CELLS_BUDGET` cells per block; the other rows go through the
sort-compress.  Both paths accumulate each output element's products
in stream (k-major) order seeded at +0.0, the order of the scalar
dictionary walk and of scipy's ``csr_matmat``, so the result is
bit-identical whichever path a row takes.  Both emit row-disjoint,
(row, col)-sorted runs, which a run-length mask interleaves without a
global sort.

The engine accepts an optional row restriction on ``A`` (Phase III
work-units are contiguous row ranges) and an optional boolean row mask
on ``B`` (the Phase I high/low classification): masked-out B rows are
treated as zero rows, which matches multiplying by :math:`B_H` or
:math:`B_L` without physically splitting ``B``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.base import INDEX_DTYPE, VALUE_DTYPE, check_multiply_compatible
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.kernels.symbolic import KernelStats, reuse_curve
from repro.obs.metrics import METRICS
from repro.util.errors import ShapeError

#: a selected row takes the dense path when its intermediate-product
#: count reaches ``max(DENSE_FILL * ncols, DENSE_MIN_WORK)``
DENSE_FILL = 0.05
DENSE_MIN_WORK = 33
#: dense-path accumulator cells per block: bounds the flat buffer's
#: working set (8 B/cell plus the touched bitmap) so it stays cache
#: resident; a row wider than the budget gets a block of its own
CELLS_BUDGET = 1_000_000


@dataclass(frozen=True)
class KernelResult:
    """A numeric kernel's output tuples plus its workload accounting."""

    #: row-locally merged <r, c, v> tuples in full-C coordinates
    result: COOMatrix
    stats: KernelStats


def check_b_row_mask(b: CSRMatrix, b_row_mask) -> np.ndarray | None:
    """Validate the optional B row mask; return it as a bool array."""
    if b_row_mask is None:
        return None
    mask = np.asarray(b_row_mask, dtype=bool)
    if mask.shape != (b.nrows,):
        raise ShapeError(f"b_row_mask must have shape ({b.nrows},), got {mask.shape}")
    return mask


def _gather(
    a: CSRMatrix, b: CSRMatrix, a_rows: np.ndarray | None, b_row_mask
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one A-entry gather: ``(row id, k, A value)`` of every selected
    A entry whose B row survives the mask, in stream order."""
    mask = check_b_row_mask(b, b_row_mask)
    if a_rows is None:
        rows, ks, avals = a.expanded_rows(), a.indices, a.data
    else:
        a_rows = np.asarray(a_rows, dtype=INDEX_DTYPE)
        if a_rows.size and (a_rows.min() < 0 or a_rows.max() >= a.nrows):
            raise ShapeError("a_rows selection out of range")
        counts = a.row_nnz()[a_rows]
        seg = np.zeros(a_rows.size, dtype=INDEX_DTYPE)
        np.cumsum(counts[:-1], out=seg[1:])
        sel = np.repeat(a.indptr[a_rows] - seg, counts) + np.arange(
            int(counts.sum()), dtype=INDEX_DTYPE
        )
        rows, ks, avals = np.repeat(a_rows, counts), a.indices[sel], a.data[sel]
    if mask is not None:
        keep = mask[ks]
        rows, ks, avals = rows[keep], ks[keep], avals[keep]
    return rows, ks, avals


def _expand(
    b: CSRMatrix, ks: np.ndarray, avals: np.ndarray, cnt: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The *expand* phase for a run of A entries: the column and product
    of every intermediate product, k-major per entry."""
    seg = np.zeros(ks.size, dtype=INDEX_DTYPE)
    np.cumsum(cnt[:-1], out=seg[1:])
    src = np.repeat(b.indptr[ks] - seg, cnt) + np.arange(
        int(cnt.sum()), dtype=INDEX_DTYPE
    )
    return b.indices[src], np.repeat(avals, cnt) * b.data[src]


def ordered_segment_sum(
    keys: np.ndarray, vals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sum ``vals`` per distinct key, accumulating in **stream order**.

    Returns ``(unique_keys_sorted, sums)``.  Each group's sum is built
    with an unbuffered in-order scatter (``np.add.at``) seeded at +0.0,
    i.e. exactly the ``acc[key] = acc.get(key, 0.0) + v`` walk a scalar
    accumulator performs — so the engine is bit-identical to the scalar
    oracle *and* to scipy's sequential per-row accumulation.
    (``np.add.reduceat`` is not usable here: its summation order is
    SIMD/blocking dependent.)
    """
    if keys.size == 0:
        return keys, vals
    order = np.argsort(keys, kind="stable")
    skeys = keys[order]
    head = np.empty(skeys.size, dtype=bool)
    head[0] = True
    np.not_equal(skeys[1:], skeys[:-1], out=head[1:])
    group_sorted = np.cumsum(head) - 1
    # group id of each *stream* element, so the scatter below visits
    # duplicates in their original (k-major) order
    group = np.empty(keys.size, dtype=INDEX_DTYPE)
    group[order] = group_sorted
    sums = np.zeros(int(group_sorted[-1]) + 1, dtype=VALUE_DTYPE)
    np.add.at(sums, group, vals)
    return skeys[head], sums


def sort_and_compress(
    shape: tuple[int, int],
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    *,
    drop_zeros: bool = False,
) -> COOMatrix:
    """The *sort* + *compress* phases: like-tuple reduction.

    Sorts tuples by (row, col) linear key, marks segment heads, and
    segment-reduces — the same mark/master-index procedure as the
    Phase IV merge (Fig 4 of the paper).  Reduction goes through
    :func:`ordered_segment_sum`, so duplicate tuples accumulate in
    stream order.
    """
    if rows.size == 0:
        return COOMatrix.empty(shape)
    ncols = max(int(shape[1]), 1)
    keys = rows.astype(INDEX_DTYPE) * INDEX_DTYPE(ncols) + cols
    ukeys, summed = ordered_segment_sum(keys, vals)
    if drop_zeros:
        keep = summed != 0.0
        ukeys, summed = ukeys[keep], summed[keep]
    return COOMatrix(shape, ukeys // ncols, ukeys % ncols, summed, validate=False)


def _dense_rows(
    b: CSRMatrix,
    rows: np.ndarray,
    ks: np.ndarray,
    avals: np.ndarray,
    cnt: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flat-accumulator path for the hub rows' A entries.

    Returns ``(hub row ids, tuples per hub row, cols, vals)`` with the
    runs row-sorted and column-sorted.  Per block of at most
    :data:`CELLS_BUDGET` cells, every intermediate product scatters into
    one 1-D buffer with ``np.bincount`` (a single in-order C loop, the
    same accumulation order as ``np.add.at``), and the touched-cell
    sweep emits each row already column-sorted.
    """
    ncols = max(int(b.ncols), 1)
    hub_ids = np.unique(rows)
    slot = np.searchsorted(hub_ids, rows)
    per_block = max(1, CELLS_BUDGET // ncols)
    block = slot // per_block
    if hub_ids.size > per_block:
        # group the entries by block, keeping stream order within each
        order = np.argsort(block, kind="stable")
        slot, ks, avals, cnt = slot[order], ks[order], avals[order], cnt[order]
        block = block[order]
    starts = np.searchsorted(block, np.arange(int(block[-1]) + 2))
    counts: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    for lo, i, j in zip(range(0, hub_ids.size, per_block), starts[:-1], starts[1:]):
        nrows = min(per_block, hub_ids.size - lo)
        c, v = _expand(b, ks[i:j], avals[i:j], cnt[i:j])
        keys = np.repeat((slot[i:j] - lo) * ncols, cnt[i:j]) + c
        ncells = nrows * ncols
        buf = np.bincount(keys, weights=v, minlength=ncells)
        touched = np.zeros(ncells, dtype=bool)
        touched[keys] = True
        nz = np.flatnonzero(touched)
        # row boundaries in the touched-cell list, without a divmod
        # over every cell
        bounds = np.searchsorted(nz, np.arange(nrows + 1, dtype=INDEX_DTYPE) * ncols)
        rcounts = np.diff(bounds)
        counts.append(rcounts)
        cols.append(nz - np.repeat(np.arange(nrows, dtype=INDEX_DTYPE) * ncols, rcounts))
        vals.append(buf[nz])
    return hub_ids, np.concatenate(counts), np.concatenate(cols), np.concatenate(vals)


def _combine(
    shape: tuple[int, int],
    sparse: COOMatrix,
    hub_ids: np.ndarray,
    hub_counts: np.ndarray,
    hub_cols: np.ndarray,
    hub_vals: np.ndarray,
) -> COOMatrix:
    """Interleave the sort-compress output with the hub rows' runs.

    The two are row-disjoint and each (row, col)-sorted, so the output
    alternates between a run of sparse-path tuples and one hub row's
    run: a run-length mask places both sides, no sort.
    """
    before = np.searchsorted(sparse.row, hub_ids)
    runs = np.empty(2 * hub_ids.size + 1, dtype=INDEX_DTYPE)
    runs[0:-1:2] = np.diff(before, prepend=0)
    runs[1::2] = hub_counts
    runs[-1] = sparse.nnz - before[-1]
    hub = np.repeat(np.arange(runs.size) % 2 == 1, runs)
    rest = ~hub
    out_r = np.empty(hub.size, dtype=INDEX_DTYPE)
    out_c = np.empty(hub.size, dtype=INDEX_DTYPE)
    out_v = np.empty(hub.size, dtype=VALUE_DTYPE)
    out_r[hub] = np.repeat(hub_ids, hub_counts)
    out_c[hub] = hub_cols
    out_v[hub] = hub_vals
    out_r[rest] = sparse.row
    out_c[rest] = sparse.col
    out_v[rest] = sparse.data
    return COOMatrix(shape, out_r, out_c, out_v, validate=False)


def esc_multiply(
    a: CSRMatrix,
    b: CSRMatrix,
    a_rows: np.ndarray | None = None,
    b_row_mask: np.ndarray | None = None,
) -> KernelResult:
    """The engine's product ``A[a_rows, :] @ B*mask`` in C coordinates.

    The returned COO matrix has shape ``(a.nrows, b.ncols)`` with entries
    only in the selected rows, (row, col)-sorted; duplicates within the
    covered rows are merged (as a warp's ``PartialOutput`` accumulator
    would), so the emitted tuples are row-locally canonical.  A row
    selected more than once contributes once per occurrence to the same
    output run.
    """
    check_multiply_compatible(a, b)
    rows, ks, avals = _gather(a, b, a_rows, b_row_mask)
    cnt = b.row_nnz()[ks]
    per_row_work = np.bincount(rows, weights=cnt, minlength=a.nrows).astype(INDEX_DTYPE)
    b_row_refs = np.bincount(ks, minlength=b.nrows)
    shape = (a.nrows, b.ncols)
    hub = per_row_work[rows] >= max(DENSE_FILL * b.ncols, DENSE_MIN_WORK)
    if hub.any():
        rest = ~hub
        c, v = _expand(b, ks[rest], avals[rest], cnt[rest])
        sparse = sort_and_compress(shape, np.repeat(rows[rest], cnt[rest]), c, v)
        result = _combine(
            shape, sparse, *_dense_rows(b, rows[hub], ks[hub], avals[hub], cnt[hub])
        )
    else:
        c, v = _expand(b, ks, avals, cnt)
        result = sort_and_compress(shape, np.repeat(rows, cnt), c, v)
    processed = (
        per_row_work
        if a_rows is None
        else per_row_work[np.asarray(a_rows, dtype=INDEX_DTYPE)]
    )
    # row-local accumulation (the warp's PartialOutput) means the tuples
    # leaving the kernel equal the locally-merged nnz, not the expansion
    stats = KernelStats.for_product(
        int(ks.size), processed, result.nnz, result.nnz,
        b_reuse_curve=reuse_curve(b_row_refs, b.row_nnz()),
    )
    if METRICS.enabled:
        METRICS.inc("kernels.esc.launches")
        METRICS.inc("kernels.esc.flops", stats.flops)
        METRICS.inc("kernels.esc.tuples", result.nnz)
        METRICS.inc("kernels.esc.expanded", int(cnt.sum()))
    return KernelResult(result=result, stats=stats)
