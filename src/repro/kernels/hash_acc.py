"""The scalar oracle: a per-row Python dictionary accumulator.

Quadratically slower than the engine but trivially auditable.  It is
the ``reference`` backend of every spmm label and, with
``scipy.sparse``, the oracle the tests hold the engine to: for every
selected row (in selection order) it walks the row's A entries, and
for each streams the B row into ``acc[j] = acc.get(j, 0.0) + av * bv``
— the k-major, +0.0-seeded accumulation order the engine reproduces
bit for bit.  Rows are emitted in selection order (the engine emits
them row-sorted), one run per occurrence.
"""

from __future__ import annotations

import numpy as np

from repro.formats.base import INDEX_DTYPE, VALUE_DTYPE, check_multiply_compatible
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.kernels.esc import KernelResult, check_b_row_mask
from repro.kernels.symbolic import KernelStats, reuse_curve
from repro.obs.metrics import METRICS
from repro.util.errors import ShapeError


def reference_multiply(
    a: CSRMatrix,
    b: CSRMatrix,
    a_rows: np.ndarray | None = None,
    b_row_mask: np.ndarray | None = None,
) -> KernelResult:
    """Dictionary-walk product ``A[a_rows, :] @ B*mask``; see
    :func:`repro.kernels.esc.esc_multiply` for conventions."""
    check_multiply_compatible(a, b)
    mask = check_b_row_mask(b, b_row_mask)
    rows_iter = (
        list(range(a.nrows)) if a_rows is None else [int(r) for r in np.asarray(a_rows)]
    )
    out_rows: list[int] = []
    out_cols: list[int] = []
    out_vals: list[float] = []
    per_row_work = np.zeros(a.nrows, dtype=INDEX_DTYPE)
    a_entries = 0
    b_row_refs = np.zeros(b.nrows, dtype=INDEX_DTYPE)
    for i in rows_iter:
        if not (0 <= i < a.nrows):
            raise ShapeError("a_rows selection out of range")
        acc: dict[int, float] = {}
        acols, avals = a.row_slice(i)
        work = 0
        for k, av in zip(acols.tolist(), avals.tolist()):
            if mask is not None and not mask[k]:
                continue
            a_entries += 1
            b_row_refs[k] += 1
            bcols, bvals = b.row_slice(k)
            work += bcols.size
            for j, bv in zip(bcols.tolist(), bvals.tolist()):
                acc[j] = acc.get(j, 0.0) + av * bv
        per_row_work[i] = work
        for j in sorted(acc):
            out_rows.append(i)
            out_cols.append(j)
            out_vals.append(acc[j])
    shape = (a.nrows, b.ncols)
    result = COOMatrix(
        shape,
        np.asarray(out_rows, dtype=INDEX_DTYPE),
        np.asarray(out_cols, dtype=INDEX_DTYPE),
        np.asarray(out_vals, dtype=VALUE_DTYPE),
        validate=False,
    )
    stats = KernelStats.for_product(
        a_entries,
        per_row_work[np.asarray(rows_iter, dtype=INDEX_DTYPE)],
        result.nnz,
        result.nnz,
        b_reuse_curve=reuse_curve(b_row_refs, b.row_nnz()),
    )
    if METRICS.enabled:
        # every intermediate product performs exactly one dict probe
        METRICS.inc("kernels.hash.launches")
        METRICS.inc("kernels.hash.probes", stats.total_work)
        METRICS.inc("kernels.hash.collisions", stats.total_work - result.nnz)
    return KernelResult(result=result, stats=stats)
