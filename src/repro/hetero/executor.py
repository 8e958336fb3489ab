"""Bridging kernels to simulated devices.

An executor runs the *real* numeric kernel on the host (so results are
exact) and charges the *modelled* time to the simulated device's clock.
This is the core of the simulation substitution: numeric path real,
timing path modelled (DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.costmodel.context import ProductContext, product_reuse_fractions
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.hardware.device import SimDevice
from repro.kernels import SPMM_KERNELS, KernelResult
from repro.kernels.symbolic import ELEM_BYTES
from repro.obs.spans import SPANS
from repro.util.errors import InvalidInputError

#: kernel signature shared by the spmm labels
KernelFn = Callable[..., KernelResult]


def resolve_kernel(kernel: str | KernelFn) -> KernelFn:
    """Accept a kernel function or a paper-facing label
    ('esc', 'spa', 'hash', 'adaptive' — all the same host engine)."""
    if callable(kernel):
        return kernel
    if isinstance(kernel, str) and kernel in SPMM_KERNELS:
        return SPMM_KERNELS[kernel]
    raise InvalidInputError(
        f"unknown kernel {kernel!r}; choose from {sorted(SPMM_KERNELS)}",
        field="kernel", value=kernel,
    )


def make_context(
    platform,
    a: CSRMatrix,
    b: CSRMatrix,
    *,
    a_rows: np.ndarray | None = None,
    b_row_mask: np.ndarray | None = None,
) -> ProductContext:
    """Build the :class:`ProductContext` for ``A[a_rows, :] @ (B*mask)``.

    Computes the product-level cache-reuse fractions against the
    platform's actual LLC / L2 capacities, so every work-unit of the
    product is charged memory traffic as if the cache persisted across
    units (it does).
    """
    calib = platform.calibration
    cpu_cap = platform.cpu.spec.l3_bytes * calib.cpu_l3_usable_fraction
    gpu_cap = platform.gpu.spec.l2_bytes
    f_cpu, f_gpu = product_reuse_fractions(
        a, b, a_rows=a_rows, b_row_mask=b_row_mask,
        cpu_capacity_bytes=cpu_cap, gpu_capacity_bytes=gpu_cap,
    )
    if b_row_mask is None:
        b_nnz, b_rows = b.nnz, b.nrows
    else:
        mask = np.asarray(b_row_mask, dtype=bool)
        b_nnz = int(b.row_nnz()[mask].sum())
        b_rows = int(mask.sum())
    return ProductContext(
        b_footprint_bytes=b_nnz * ELEM_BYTES + (b_rows + 1) * 8,
        ncols=b.ncols,
        cpu_reuse_fraction=f_cpu,
        gpu_reuse_fraction=f_gpu,
    )


@dataclass(frozen=True)
class ProductRun:
    """One executed (sub)product: tuples, workload stats, modelled time."""

    part: COOMatrix
    duration: float
    tuples: int
    flops: int
    #: simulated start/end of the device activity (for pipelined copies)
    start: float = 0.0
    end: float = 0.0


def run_product(
    device: SimDevice,
    phase: str,
    label: str,
    a: CSRMatrix,
    b: CSRMatrix,
    ctx: ProductContext,
    *,
    a_rows: np.ndarray | None = None,
    b_row_mask: np.ndarray | None = None,
    kernel: str | KernelFn = "esc",
    extra_overhead: float = 0.0,
    backend=None,
) -> ProductRun:
    """Execute a row-row (sub)product numerically and charge its
    modelled time (plus ``extra_overhead``, e.g. a work-unit dequeue
    cost) to ``device``.

    ``backend`` ('numpy' or 'reference') selects the kernel
    implementation; it is only forwarded when set, so ad-hoc kernel
    callables without a ``backend`` parameter keep working.
    """
    fn = resolve_kernel(kernel)
    kernel_kwargs = {} if backend is None else {"backend": backend}
    with SPANS.span(label, category=f"kernel.{device.kind}") as sp:
        result = fn(a, b, a_rows=a_rows, b_row_mask=b_row_mask, **kernel_kwargs)
        duration = device.spmm_time(result.stats, ctx) + extra_overhead
        event = device.busy(
            phase,
            label,
            duration,
            flops=result.stats.flops,
            tuples=result.stats.tuples_emitted,
            rows=result.stats.rows_processed,
        )
        if sp is not None:
            sp.set_sim(event.start, event.end, device=device.name, phase=phase)
    return ProductRun(
        part=result.result,
        duration=duration,
        tuples=result.stats.tuples_emitted,
        flops=result.stats.flops,
        start=event.start,
        end=event.end,
    )


def run_product_resilient(
    device: SimDevice,
    fallback: SimDevice,
    injector,
    phase: str,
    label: str,
    a: CSRMatrix,
    b: CSRMatrix,
    ctx: ProductContext,
    fallback_ctx: ProductContext | None = None,
    **kwargs,
) -> tuple[ProductRun, str]:
    """Run a (sub)product on ``device``, failing over to ``fallback``
    when an injected crash kills it — dead before the launch, or
    mid-product (the partial run is curtailed and the whole product
    re-executed on the survivor, which is what a lost monolithic kernel
    costs; Phase III units recover at finer grain via the workqueue).

    Returns ``(run, executed_kind)``.  With no injector attached this is
    exactly :func:`run_product` on ``device``.
    """
    if injector is None or not (
        injector.crashed(device.kind, device.clock)
        or injector.crash_time(device.kind) is not None
    ):
        return run_product(device, phase, label, a, b, ctx, **kwargs), device.kind

    if injector.crashed(device.kind, device.clock):
        injector.mark_dead(device.kind, injector.crash_time(device.kind))
        run = run_product(
            fallback, phase, f"{label}:failover", a, b, fallback_ctx or ctx, **kwargs
        )
        return run, fallback.kind

    run = run_product(device, phase, label, a, b, ctx, **kwargs)
    crash_t = injector.crash_time(device.kind)
    if run.start <= crash_t < run.end:
        device.curtail(crash_t, reason="crash")
        injector.mark_dead(device.kind, crash_t)
        fallback.wait_until(crash_t)
        rerun = run_product(
            fallback, phase, f"{label}:failover", a, b, fallback_ctx or ctx, **kwargs
        )
        return rerun, fallback.kind
    return run, device.kind
