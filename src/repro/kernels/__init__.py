"""Numeric spmm kernels and the Phase IV tuple merge.

One host SpGEMM engine, :func:`repro.kernels.esc.esc_multiply` (ESC
sort-compress with a flat dense accumulator for hub rows), and one
scalar oracle, :func:`repro.kernels.hash_acc.reference_multiply` (the
per-row dictionary walk).  :data:`BACKENDS` names them ``numpy`` and
``reference``; the two give bit-identical results and equal stats.

The paper's kernel labels — ``esc`` (GPU-shaped), ``spa`` (CPU-shaped
Gustavson), ``hash`` and ``adaptive`` — are kept as validated,
paper-facing names in :data:`SPMM_KERNELS`; they all run the same
``backend=`` implementation.  The accumulator each device would use
lives in the device cost models, not in host code.  Everything above
the kernel layer dispatches through the entry points here (lint rule
BKD001).

Plus :func:`merge_tuples` (Phase IV), symbolic work estimation, spmv,
and the §VI csrmm extension.
"""

from __future__ import annotations

import numpy as np

from repro.formats.csr import CSRMatrix
from repro.kernels.symbolic import KernelStats, WorkEstimate, estimate_work, symbolic_nnz
from repro.kernels import esc as _engine
from repro.kernels.esc import KernelResult, sort_and_compress
from repro.kernels.hash_acc import reference_multiply
from repro.kernels.merge import (
    MergeResult,
    MergeStats,
    mark_master_indices,
    merge_tuples,
)
from repro.kernels.spmv import csr_spmv, masked_spmv, split_spmv
from repro.kernels.csrmm import CsrmmResult, CsrmmStats, csrmm
from repro.util.errors import InvalidInputError

#: backend used when callers do not ask for one
DEFAULT_BACKEND = "numpy"

#: the host implementations every spmm label can run under
BACKENDS = {
    "numpy": _engine.esc_multiply,
    "reference": reference_multiply,
}


def resolve_backend(backend: object = None) -> str:
    """Validate a ``backend=`` argument; ``None`` means the default.

    Raises :class:`repro.util.errors.InvalidInputError` for anything but
    a name in :data:`BACKENDS` — backend selection is a public
    validation gate exactly like operand hardening.
    """
    if backend is None:
        return DEFAULT_BACKEND
    if not isinstance(backend, str):
        raise InvalidInputError(
            f"backend must be a name or None, got {type(backend).__name__}",
            field="backend", value=backend,
        )
    if backend not in BACKENDS:
        raise InvalidInputError(
            f"unknown kernel backend {backend!r}; choose from {sorted(BACKENDS)}",
            field="backend", value=backend,
        )
    return backend


def esc_multiply(
    a: CSRMatrix,
    b: CSRMatrix,
    a_rows: np.ndarray | None = None,
    b_row_mask: np.ndarray | None = None,
    *,
    backend: str | None = None,
) -> KernelResult:
    """``A[a_rows, :] @ B*mask`` under ``backend`` (the ESC label)."""
    return BACKENDS[resolve_backend(backend)](a, b, a_rows, b_row_mask)


def spa_multiply(a, b, a_rows=None, b_row_mask=None, *, backend=None) -> KernelResult:
    """The paper's CPU (SPA) label: the same product as :func:`esc_multiply`."""
    return esc_multiply(a, b, a_rows, b_row_mask, backend=backend)


def hash_multiply(a, b, a_rows=None, b_row_mask=None, *, backend=None) -> KernelResult:
    """The hash-accumulator label: the same product as :func:`esc_multiply`."""
    return esc_multiply(a, b, a_rows, b_row_mask, backend=backend)


def adaptive_multiply(a, b, a_rows=None, b_row_mask=None, *, backend=None) -> KernelResult:
    """The per-row-regime label: the same product as :func:`esc_multiply`."""
    return esc_multiply(a, b, a_rows, b_row_mask, backend=backend)


#: the paper-facing spmm kernel labels
SPMM_KERNELS = {
    "esc": esc_multiply,
    "spa": spa_multiply,
    "hash": hash_multiply,
    "adaptive": adaptive_multiply,
}

__all__ = [
    "KernelStats",
    "WorkEstimate",
    "estimate_work",
    "symbolic_nnz",
    "KernelResult",
    "DEFAULT_BACKEND",
    "BACKENDS",
    "resolve_backend",
    "esc_multiply",
    "sort_and_compress",
    "spa_multiply",
    "hash_multiply",
    "adaptive_multiply",
    "reference_multiply",
    "MergeResult",
    "MergeStats",
    "mark_master_indices",
    "merge_tuples",
    "csr_spmv",
    "masked_spmv",
    "split_spmv",
    "CsrmmResult",
    "CsrmmStats",
    "csrmm",
    "SPMM_KERNELS",
]
