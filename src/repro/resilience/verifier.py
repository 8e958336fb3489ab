"""End-to-end result verification by seeded spot re-execution.

The service's last line of defence against *silent* data corruption
(bit-flips in tuple streams, dropped rows — see
``repro.faults.spec.ResultCorrupt``): before a result is delivered to
a client, it is

1. **structurally audited** — shape, monotone row pointers, in-range
   strictly-increasing column indices, finite values; and
2. **spot re-executed** — a seeded sample of row blocks is recomputed
   from the original operands with the host engine
   (:func:`repro.kernels.esc_multiply` + canonicalisation, the
   library-level twin of the Phase IV merge) and compared row by row.

Sampling is deterministic: the block starts come from a generator
seeded with the :class:`~repro.resilience.config.VerifySpec` seed only,
so the same (spec, result shape) always audits the same rows and
replayed runs verify identically.  Structure must match exactly;
values are compared with a tight relative tolerance because the
delivered result may have accumulated duplicates in a different
(equally valid) floating-point order than the row-local recompute.

Any mismatch raises :class:`repro.util.errors.CorruptResultError` with
the evidence in ``context`` — callers (the resilient executor) turn
that into retries, breaker trips, and ultimately quarantine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.obs.events import EVENTS
from repro.obs.metrics import METRICS
from repro.resilience.config import VerifySpec
from repro.util.errors import CorruptResultError
from repro.util.rng import resolve_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.formats.csr import CSRMatrix

#: value comparison tolerances for the sampled recompute.  The
#: delivered Phase IV merge and the row-local reference canonicalise
#: may sum duplicates in different orders, so exact bit-equality is
#: not guaranteed in general; an injected bit-62 flip or a dropped row
#: is many orders of magnitude outside these bounds.
RTOL = 1e-9
ATOL = 1e-12


def sample_rows(spec: VerifySpec, nrows: int) -> np.ndarray:
    """The sorted, de-duplicated row sample the spec pins for a result
    with ``nrows`` rows (all rows when ``spec.full``)."""
    if spec.full or nrows <= spec.blocks * spec.block_rows:
        return np.arange(nrows, dtype=np.int64)
    rng = resolve_rng(spec.seed)
    starts = rng.integers(0, nrows - spec.block_rows + 1, size=spec.blocks)
    blocks = [
        np.arange(int(s), int(s) + spec.block_rows, dtype=np.int64)
        for s in sorted(int(s) for s in starts)
    ]
    return np.unique(np.concatenate(blocks))


def _fail(check: str, message: str, **context: object) -> CorruptResultError:
    if METRICS.enabled:
        METRICS.inc("resilience.corrupt.detected")
    if EVENTS.enabled:
        EVENTS.emit("corrupt_detected", check=check, **{
            k: v for k, v in context.items()
            if isinstance(v, (str, int, float, bool, type(None)))
        })
    return CorruptResultError(message, check=check, **context)


def _check_structure(a: "CSRMatrix", b: "CSRMatrix", c: "CSRMatrix") -> None:
    """Structural invariants every genuine product satisfies."""
    if c.shape != (a.nrows, b.ncols):
        raise _fail(
            "shape", f"result shape {c.shape} != ({a.nrows}, {b.ncols})",
            expected=f"({a.nrows}, {b.ncols})", got=str(c.shape),
        )
    if c.indptr.size != c.nrows + 1 or (c.indptr.size and c.indptr[0] != 0):
        raise _fail("indptr", "result indptr malformed", rows=int(c.nrows))
    if np.any(np.diff(c.indptr) < 0):
        raise _fail("indptr", "result indptr not monotone", rows=int(c.nrows))
    if c.indptr.size and int(c.indptr[-1]) != c.indices.size:
        raise _fail(
            "indptr", "result indptr does not cover indices",
            nnz=int(c.indices.size),
        )
    if c.indices.size and (
        int(c.indices.min()) < 0 or int(c.indices.max()) >= c.ncols
    ):
        raise _fail("indices", "result column index out of range",
                    ncols=int(c.ncols))
    if not bool(np.all(np.isfinite(c.data))):
        bad = int(np.flatnonzero(~np.isfinite(c.data))[0])
        raise _fail(
            "finite", "result carries non-finite values",
            first_bad_entry=bad,
        )


def verify_result(
    a: "CSRMatrix",
    b: "CSRMatrix",
    c: "CSRMatrix",
    spec: VerifySpec,
    *,
    backend: str | None = None,
) -> int:
    """Audit ``c`` as the product ``a @ b``; return sampled row count.

    Raises :class:`CorruptResultError` on the first failed check.
    ``backend`` (the backend that produced ``c``) is evidence only —
    it lands in the error context and the ``corrupt_detected`` event.
    """
    from repro.kernels import esc_multiply

    _check_structure(a, b, c)
    rows = sample_rows(spec, a.nrows)
    # besides the seeded sample, always audit "suspicious" rows: an
    # empty result row under a non-empty A row is exactly the footprint
    # a dropped-row corruption leaves, and spotting candidates costs
    # one indptr diff.  Capped (deterministically, lowest row ids
    # first) so an adversarially sparse result cannot force a full
    # recompute through this side door.
    suspicious = np.flatnonzero(
        (np.diff(a.indptr) > 0) & (np.diff(c.indptr) == 0)
    ).astype(np.int64)
    if suspicious.size:
        cap = spec.blocks * spec.block_rows
        rows = np.union1d(rows, suspicious[:cap])
    if METRICS.enabled:
        METRICS.inc("resilience.verify.checks")
        METRICS.inc("resilience.verify.rows", int(rows.size))
    if rows.size == 0:
        return 0
    expected = esc_multiply(a, b, a_rows=rows).result.canonicalize()
    # restrict the delivered CSR to the sampled rows
    counts = (c.indptr[rows + 1] - c.indptr[rows]).astype(np.int64)
    got_rows = np.repeat(rows, counts)
    if counts.sum():
        starts = np.repeat(c.indptr[rows], counts)
        offsets = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(counts)[:-1])), counts
        )
        take = starts + offsets
    else:
        take = np.zeros(0, dtype=np.int64)
    got_cols = c.indices[take]
    got_vals = c.data[take]
    if (
        expected.nnz != got_rows.size
        or not np.array_equal(expected.row, got_rows)
        or not np.array_equal(expected.col, got_cols)
    ):
        raise _fail(
            "structure-mismatch",
            f"sampled rows disagree with reference recompute: expected "
            f"{expected.nnz} entries, got {got_rows.size}",
            rows=int(rows.size), expected_nnz=int(expected.nnz),
            got_nnz=int(got_rows.size), backend=backend,
        )
    if not np.allclose(got_vals, expected.data, rtol=RTOL, atol=ATOL):
        worst = int(np.argmax(np.abs(got_vals - expected.data)))
        raise _fail(
            "value-mismatch",
            "sampled values diverge from reference recompute",
            rows=int(rows.size),
            row=int(got_rows[worst]), col=int(got_cols[worst]),
            got=float(got_vals[worst]), expected=float(expected.data[worst]),
            backend=backend,
        )
    return int(rows.size)
