"""Phase IV: merging ``<r, c, v>`` tuple streams into the final CSR.

Implements the procedure of §III-D / Fig 4 of the paper:

1. **merge/sort** — tuples from all producers are ordered by (row, col)
   with one stable sort of their linear keys (device streams arrive
   key-sorted, so the sort mostly merges runs);
2. **mark** — a flag array marks the first tuple of each like-tuple run
   (the *master index*); compacting by the flags gives each master its
   output slot, which the paper's exclusive scan computes on a device;
3. **reduce** — each run with repeats is summed; runs of one tuple are
   copied, so a merge without cross-stream overlap does no arithmetic;
4. **CSR conversion** — row pointers by binary search over the sorted
   rows, as in §V-D's remark that Phase IV converts tuples to CSR.

The functions report a :class:`MergeStats` record used by the cost model
(Fig 7 shows Phase IV must stay under ~4% of total time, and Fig 10's
discussion attributes the 500K/1M speedup drop to growth in tuple count,
so tuple volume must be surfaced).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.formats.base import INDEX_DTYPE
from repro.formats.coo import COOMatrix, check_part_shapes
from repro.formats.csr import CSRMatrix
from repro.obs.metrics import METRICS


@dataclass(frozen=True)
class MergeStats:
    """Workload accounting of a Phase IV merge."""

    #: tuples entering the merge (from all devices / phases)
    tuples_in: int
    #: distinct (row, col) master indices
    masters: int
    #: largest like-tuple run length
    max_run: int
    #: comparisons performed by the sort, modelled as n log2 n
    sort_ops: int
    #: additions performed by the reduction (tuples_in - masters)
    reduce_ops: int

    @property
    def duplication_ratio(self) -> float:
        """Average tuples per output entry (1.0 = no cross-phase overlap)."""
        return self.tuples_in / self.masters if self.masters else 0.0


@dataclass(frozen=True)
class MergeResult:
    """Final CSR matrix plus merge workload statistics."""

    matrix: CSRMatrix
    stats: MergeStats


def mark_master_indices(keys: np.ndarray) -> np.ndarray:
    """Boolean flags marking the first tuple of each like-tuple run.

    ``keys`` must already be sorted.
    """
    head = np.empty(keys.size, dtype=bool)
    if keys.size:
        head[0] = True
        np.not_equal(keys[1:], keys[:-1], out=head[1:])
    return head


def merge_tuples(
    shape: tuple[int, int],
    parts: Sequence[COOMatrix],
    *,
    drop_zeros: bool = False,
) -> MergeResult:
    """Merge per-device tuple streams into one canonical CSR matrix.

    Parameters
    ----------
    shape:
        Shape of the output matrix ``C``.
    parts:
        Tuple streams (COO matrices in C coordinates) produced by the
        CPU and GPU during Phases II and III.
    drop_zeros:
        When True, entries whose merged value is exactly zero are
        dropped (numerical cancellation).  The paper keeps them —
        accumulators emit whatever they saw — so the default is False.
    """
    parts = list(parts)
    nrows, ncols = check_part_shapes(shape, parts)
    tuples_in = sum(p.nnz for p in parts)
    if tuples_in == 0:
        empty = CSRMatrix.empty((nrows, ncols))
        return MergeResult(empty, MergeStats(0, 0, 0, 0, 0))

    # linear keys, written part by part: the sorted keys give rows and
    # columns back, so no concatenated row/col arrays are built
    width = INDEX_DTYPE(max(ncols, 1))
    keys = np.empty(tuples_in, dtype=INDEX_DTYPE)
    at = 0
    for p in parts:
        seg = keys[at:at + p.nnz]
        np.multiply(p.row, width, out=seg)
        seg += p.col
        at += p.nnz
    data = np.concatenate([p.data for p in parts])
    order = np.argsort(keys, kind="stable")
    keys = keys.take(order)

    head = mark_master_indices(keys)
    max_run = 1
    if not head.all():
        first = order[head]
        keys = keys[head]
        summed = data.take(first)
        # reduce only the runs with repeats; each run's segment sum is
        # the one a reduction over every run would give
        repeats = np.flatnonzero(~head)
        run0 = np.flatnonzero(np.diff(repeats, prepend=-1) != 1)
        heads = repeats.take(run0) - 1
        members = np.insert(repeats, run0, heads)
        starts = run0 + np.arange(run0.size)
        summed[heads - run0] = np.add.reduceat(data.take(order.take(members)), starts)
        max_run = int(np.diff(starts, append=members.size).max())
    else:
        summed = data.take(order)
    masters = keys.size
    if drop_zeros:
        keep = summed != 0.0
        keys, summed = keys[keep], summed[keep]

    out_rows = keys // width
    out_cols = out_rows * width
    np.subtract(keys, out_cols, out=out_cols)
    indptr = np.searchsorted(out_rows, np.arange(nrows + 1, dtype=INDEX_DTYPE))
    matrix = CSRMatrix((nrows, ncols), indptr, out_cols, summed, validate=False)

    stats = MergeStats(
        tuples_in=tuples_in,
        masters=masters,
        max_run=max_run,
        sort_ops=int(tuples_in * max(1.0, np.log2(tuples_in))),
        reduce_ops=tuples_in - masters,
    )
    if METRICS.enabled:
        METRICS.inc("kernels.merge.calls")
        METRICS.inc("kernels.merge.tuples_in", stats.tuples_in)
        METRICS.inc("kernels.merge.reduce_ops", stats.reduce_ops)
        METRICS.inc("kernels.merge.sort_ops", stats.sort_ops)
    return MergeResult(matrix=matrix, stats=stats)


def merge_tuples_grouped(
    shape: tuple[int, int],
    parts: Sequence[COOMatrix],
    *,
    max_group_tuples: int,
    drop_zeros: bool = False,
) -> MergeResult:
    """Memory-bounded Phase IV: merge ``parts`` hierarchically so no
    single sort ever materialises more than ~``max_group_tuples`` tuples.

    Parts are grouped greedily in order (each group at least one part,
    closed once it reaches the budget), each group merged to a canonical
    intermediate, and the deduplicated group outputs merged once more.
    Grouping is a deterministic function of the parts and the budget, so
    a given configuration always produces the same result — but because
    cross-group duplicates are summed at the second level, the
    floating-point summation *order* differs from the flat
    :func:`merge_tuples`; results are mathematically equal (scipy-equal
    in tests), not bit-identical to the unbudgeted path.

    The reported stats count the original ``tuples_in`` so cost models
    and metrics see the true tuple volume.
    """
    if max_group_tuples <= 0:
        raise ValueError(f"max_group_tuples must be positive, got {max_group_tuples}")
    parts = list(parts)
    total_in = sum(p.nnz for p in parts)
    if total_in <= max_group_tuples or len(parts) <= 1:
        return merge_tuples(shape, parts, drop_zeros=drop_zeros)

    groups: list[list[COOMatrix]] = [[]]
    acc = 0
    for p in parts:
        if groups[-1] and acc + p.nnz > max_group_tuples:
            groups.append([])
            acc = 0
        groups[-1].append(p)
        acc += p.nnz

    reduced = [merge_tuples(shape, g).matrix.tocoo() for g in groups]
    final = merge_tuples(shape, reduced, drop_zeros=drop_zeros)
    stats = MergeStats(
        tuples_in=total_in,
        masters=final.stats.masters,
        max_run=final.stats.max_run,
        sort_ops=int(total_in * max(1.0, np.log2(total_in))),
        reduce_ops=int(total_in - final.stats.masters),
    )
    if METRICS.enabled:
        METRICS.inc("kernels.merge.grouped_calls")
        METRICS.inc("kernels.merge.groups", len(groups))
    return MergeResult(matrix=final.matrix, stats=stats)
