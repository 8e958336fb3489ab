"""Algorithm HH-CPU (§III) — the paper's primary contribution.

Four phases on the simulated CPU+GPU platform:

- **Phase I** — thresholds ``t_A``/``t_B`` (auto-selected through the
  analytic estimator unless given), boolean row classification computed
  on the GPU from the row-size arrays.
- **Phase II** — overlapped: CPU runs :math:`A_H B_H` (cache-blocked
  dense rows), GPU runs :math:`A_L B_L` (uniform short rows, one warp
  per row).  Operand upload precedes the GPU product.
- **Phase III** — :math:`A_L B_H` and :math:`A_H B_L` through the
  double-ended workqueue (cpuRows = 1000, gpuRows = 10 000 by default,
  §IV-B), each device dequeueing from its own end and stealing from the
  other once its end drains.
- **Phase IV** — the GPU's tuples cross PCIe back to the host, where
  the mark/scan/master-index merge produces the final CSR.

Numeric results are exact (kernels run for real on the host); times are
modelled (see DESIGN.md §2).

The phases are individual methods over an explicit
:class:`HHCPURunState`, so the pipeline has two drivers:
:meth:`HHCPU.multiply` runs the stages back to back, and the durable
job runner (:mod:`repro.jobs.runner`) runs the *same* stages with
checkpoints between them and Phase III drained in resumable slices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.faults.injector import FaultInjector
from repro.faults.policy import RetryPolicy
from repro.faults.spec import FaultSpec
from repro.formats.base import check_multiply_compatible
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.validation import ensure_canonical
from repro.hardware.platform import HeteroPlatform, default_platform
from repro.hetero.executor import (
    make_context,
    resolve_kernel,
    run_product,
    run_product_resilient,
)
from repro.hetero.partition import Partition, partition_rows
from repro.hetero.scheduler import Phase3Carry, Phase3Outcome, run_workqueue_phase
from repro.hetero.workqueue import (
    DEFAULT_CPU_ROWS,
    DEFAULT_GPU_ROWS,
    DoubleEndedWorkQueue,
    WorkUnit,
)
from repro.kernels import resolve_backend
from repro.kernels.merge import merge_tuples, merge_tuples_grouped
from repro.obs.events import EVENTS
from repro.obs.metrics import METRICS
from repro.obs.spans import SPANS
from repro.core.result import SpmmResult
from repro.core.threshold import select_threshold
from repro.util.errors import ResourceExhausted

#: bytes of one ``<r, c, v>`` intermediate tuple (int64, int64, float64)
TUPLE_BYTES = 24


@dataclass
class HHCPURunState:
    """Mutable state of one HH-CPU run, advanced phase by phase.

    Everything a checkpoint must capture lives here (or is
    deterministically recomputable from here plus the operands): the
    thresholds, the partition, the Phase II tuple parts in production
    order, the Phase III queue + accumulated outcome, and the GPU tuple
    tallies for the run record.
    """

    a: CSRMatrix
    b: CSRMatrix
    t_a: int | None = None
    t_b: int | None = None
    part: Partition | None = None
    #: per-quadrant product contexts, keyed "HH"/"LL"/"LH"/"HL"
    contexts: dict | None = None
    #: Phase II tuple streams in production order (HH chunks, LL chunks)
    phase2_parts: list[COOMatrix] = field(default_factory=list)
    gpu_tuples: int = 0
    phase3_gpu_tuples: int = 0
    queue: DoubleEndedWorkQueue | None = None
    #: Phase III outcome accumulated across (possibly sliced) drains
    outcome: Phase3Outcome = field(default_factory=Phase3Outcome)


def masked_row_work(a: CSRMatrix, b: CSRMatrix, rows: np.ndarray, b_row_mask) -> np.ndarray:
    """Symbolic intermediate-tuple counts of ``A[rows, :] @ (B*mask)``.

    ``work[j] = sum_{k in A(rows[j],:)} nnz(B(k,:)) * mask[k]`` — the
    per-row memory cost of the quadrant, used to size budgeted Phase II
    chunks before any tuple is materialised.
    """
    sizes = np.where(np.asarray(b_row_mask, dtype=bool), b.row_nnz(), 0)
    sub = a.take_rows(rows)
    if sub.nnz == 0:
        return np.zeros(rows.size, dtype=np.int64)
    gathered = sizes[sub.indices]
    work = np.add.reduceat(
        np.concatenate([gathered, [0]]), sub.indptr[:-1]
    )[: rows.size]
    return np.where(sub.row_nnz() == 0, 0, work).astype(np.int64)


class HHCPU:
    """The HH-CPU heterogeneous spmm algorithm.

    Parameters
    ----------
    platform:
        Simulated platform; defaults to the paper's i7 980 + K20c.
    kernel:
        Numeric kernel label or callable ('esc' default; 'spa'/'hash'/
        'adaptive' name the same host engine).
    backend:
        Kernel backend name: 'numpy' (the engine, the default for
        ``None``) or 'reference' (the scalar oracle).  Forwarded to the
        kernel unless ``kernel`` is an ad-hoc callable and no backend
        was asked for.
    cpu_rows, gpu_rows:
        Phase III work-unit sizes (paper defaults 1000 / 10000).
    threshold_a, threshold_b:
        Fixed Phase I thresholds; ``None`` selects them with the
        analytic estimator (the library's "empirical" pick).
    faults:
        Optional :class:`~repro.faults.injector.FaultInjector` (or a
        :class:`~repro.faults.spec.FaultSpec`, wrapped automatically)
        enabling the fault-injection / graceful-degradation path; the
        numeric result stays exact under any survivable schedule.
    retry:
        Retry-policy override for Phase III recovery; defaults to the
        fault spec's policy.
    mem_budget_bytes:
        Optional cap on materialised intermediate-tuple memory.  Phase II
        quadrants whose symbolic tuple volume exceeds it run as
        row-disjoint chunks (bit-identical output), and Phase IV merges
        in bounded groups (mathematically equal output); a single row
        whose tuples alone exceed the budget raises
        :class:`~repro.util.errors.ResourceExhausted`.
    schedule_tiebreak:
        Optional ``() -> int`` permuting equal-simulated-time Phase III
        event order (the :mod:`repro.sanitize` perturbation harness);
        the result must be bit-identical for any choice.
    """

    name = "HH-CPU"

    def __init__(
        self,
        platform: HeteroPlatform | None = None,
        *,
        kernel="esc",
        backend=None,
        cpu_rows: int = DEFAULT_CPU_ROWS,
        gpu_rows: int = DEFAULT_GPU_ROWS,
        threshold_a: int | None = None,
        threshold_b: int | None = None,
        faults: FaultInjector | FaultSpec | None = None,
        retry: RetryPolicy | None = None,
        mem_budget_bytes: int | None = None,
        schedule_tiebreak=None,
    ):
        self.platform = platform or default_platform()
        self.kernel = resolve_kernel(kernel)
        self.backend = resolve_backend(backend)
        # ad-hoc kernel callables may not take a ``backend=`` kwarg; only
        # forward it to a labelled kernel or when the caller asked for one
        self._kernel_backend = (
            self.backend if isinstance(kernel, str) or backend is not None else None
        )
        if cpu_rows <= 0 or gpu_rows <= 0:
            raise ValueError("work-unit sizes must be positive")
        self.cpu_rows = int(cpu_rows)
        self.gpu_rows = int(gpu_rows)
        self.threshold_a = threshold_a
        self.threshold_b = threshold_b
        if isinstance(faults, FaultSpec):
            faults = FaultInjector(faults)
        self.faults = faults
        self.retry = retry
        if mem_budget_bytes is not None and mem_budget_bytes <= 0:
            raise ValueError("mem_budget_bytes must be positive when given")
        self.mem_budget_bytes = mem_budget_bytes
        #: optional ``() -> int`` perturbing equal-time Phase III event
        #: order (the sanitizer's schedule-exploration knob; see
        #: :class:`repro.hardware.engine.EventEngine`)
        self.schedule_tiebreak = schedule_tiebreak

    # -- public API ---------------------------------------------------------
    def multiply(self, a: CSRMatrix, b: CSRMatrix) -> SpmmResult:
        """Compute ``C = A @ B`` on the simulated platform."""
        st = self.begin(a, b)
        self.run_phase1(st)
        self.stage_operands(st)
        self.make_contexts(st)
        self.run_phase2(st)
        self.build_queue(st)
        self.run_phase3(st)
        return self.run_phase4(st)

    # -- stages -------------------------------------------------------------
    def begin(self, a: CSRMatrix, b: CSRMatrix) -> HHCPURunState:
        """Validate inputs, reset the platform, open a fresh run state.

        Operands pass the canonicalization/validation gate: structurally
        invalid inputs raise typed errors here, and non-canonical (but
        valid) ones are repaired before any kernel sees them.
        """
        a = ensure_canonical(a, name="a")
        b = ensure_canonical(b, name="b")
        check_multiply_compatible(a, b)
        if self.faults is not None:
            self.platform.inject_faults(self.faults)
        self.platform.reset()
        if EVENTS.enabled:
            # both backends run natively and in k-major order; the
            # constant fields keep the event's shape for log readers
            EVENTS.emit(
                "backend_selected",
                backend=self.backend,
                impl=self.backend,
                ordered=True,
                available=True,
                fallback_reason=None,
            )
        return HHCPURunState(a=a, b=b)

    def run_phase1(self, st: HHCPURunState) -> None:
        """Phase I: thresholds + row classification (GPU, with host
        failover when the GPU is dead or dies mid-classification)."""
        pf = self.platform
        inj = self.faults
        a, b = st.a, st.b
        t_a, t_b = self.threshold_a, self.threshold_b
        if t_a is None or t_b is None:
            auto_a, auto_b = select_threshold(a, b, pf)
            t_a = auto_a if t_a is None else t_a
            t_b = auto_b if t_b is None else t_b
        pf.cpu.busy("I", "host:prepare-row-sizes", pf.cpu.phase1_time(a.nrows + b.nrows))
        if inj is not None and inj.crashed("gpu", pf.gpu.clock):
            # the GPU was dead on arrival: the host classifies its own
            # rows and the whole run degrades to single-device mode
            inj.mark_dead("gpu", inj.crash_time("gpu"))
            pf.cpu.busy(
                "I", "host:classify-rows:failover",
                pf.cpu.phase1_time(a.nrows + b.nrows),
            )
        else:
            pf.upload_row_sizes("I", "xfer:row-sizes", a.nrows + b.nrows)
            classify = pf.gpu.busy(
                "I", "gpu:classify-rows", pf.gpu.phase1_time(a.nrows + b.nrows)
            )
            if inj is not None:
                crash_t = inj.crash_time("gpu")
                if crash_t is not None and classify.start <= crash_t < classify.end:
                    pf.gpu.curtail(crash_t, reason="crash")
                    inj.mark_dead("gpu", crash_t)
                    pf.cpu.wait_until(crash_t)
                    pf.cpu.busy(
                        "I", "host:classify-rows:failover",
                        pf.cpu.phase1_time(a.nrows + b.nrows),
                    )
        st.t_a, st.t_b = int(t_a), int(t_b)
        with SPANS.span("phase1:partition-rows", category="host.partition") as sp:
            st.part = partition_rows(a, b, st.t_a, st.t_b)
            if sp is not None:
                sp.set_sim(0.0, pf.elapsed, phase="I")
        if METRICS.enabled:
            METRICS.inc("phase1.rows_classified", a.nrows + b.nrows)
            for key, value in st.part.summary().items():
                if key.endswith(("_rows", "_nnz")):
                    METRICS.set_gauge(f"phase1.partition.{key}", value)

    def stage_operands(self, st: HHCPURunState) -> None:
        """Ship operands and row classes to the GPU (charged to Phase II)."""
        pf = self.platform
        inj = self.faults
        gpu_down = inj is not None and inj.crashed("gpu", pf.gpu.clock)
        if not gpu_down:
            pf.upload_matrix("II", "xfer:A", st.a)
            pf.upload_matrix("II", "xfer:B", st.b)
            pf.upload_boolean("II", "xfer:row-classes", st.a.nrows + st.b.nrows)

    def make_contexts(self, st: HHCPURunState) -> None:
        """Per-product cost-model contexts (pure; safe to recompute on
        resume — reuse fractions are product-level and deterministic)."""
        pf = self.platform
        a, b, part = st.a, st.b, st.part
        st.contexts = {
            "HH": make_context(pf, a, b, a_rows=part.a.high_rows,
                               b_row_mask=part.b.high_mask),
            "LL": make_context(pf, a, b, a_rows=part.a.low_rows,
                               b_row_mask=~part.b.high_mask),
            "LH": make_context(pf, a, b, a_rows=part.a.low_rows,
                               b_row_mask=part.b.high_mask),
            "HL": make_context(pf, a, b, a_rows=part.a.high_rows,
                               b_row_mask=~part.b.high_mask),
        }

    def _budget_tuples(self) -> int | None:
        if self.mem_budget_bytes is None:
            return None
        return max(1, self.mem_budget_bytes // TUPLE_BYTES)

    def _phase2_row_chunks(
        self, st: HHCPURunState, rows: np.ndarray, b_row_mask, budget_tuples: int | None
    ) -> list[np.ndarray]:
        """Split a quadrant's row set into contiguous chunks whose
        symbolic tuple volume each fits the memory budget.

        Chunks are row-disjoint and in ascending row order, so per-row
        tuples land in the same stream order as the unchunked product —
        the Phase IV merge output is bit-identical either way.
        """
        if budget_tuples is None or rows.size == 0:
            return [rows]
        work = masked_row_work(st.a, st.b, rows, b_row_mask)
        total = int(work.sum())
        if total <= budget_tuples:
            return [rows]
        worst_j = int(work.argmax())
        worst = int(work[worst_j])
        if worst > budget_tuples:
            raise ResourceExhausted(
                f"row {int(rows[worst_j])} alone produces {worst} intermediate "
                f"tuples ({worst * TUPLE_BYTES} bytes), exceeding the "
                f"{self.mem_budget_bytes}-byte memory budget",
                budget_bytes=self.mem_budget_bytes,
                required_bytes=worst * TUPLE_BYTES,
                row=int(rows[worst_j]),
            )
        cum = np.cumsum(work)
        chunks: list[np.ndarray] = []
        start = 0
        base = 0
        for i in range(rows.size):
            if cum[i] - base > budget_tuples:
                chunks.append(rows[start:i])
                start = i
                base = int(cum[i - 1])
        chunks.append(rows[start:])
        if METRICS.enabled:
            METRICS.inc("jobs.budget.phase2_chunks", len(chunks))
        return chunks

    def run_phase2(self, st: HHCPURunState) -> None:
        """Phase II: overlapped CPU ``A_H B_H`` and GPU ``A_L B_L``
        (crash failover; optional budgeted row-chunking)."""
        pf = self.platform
        inj = self.faults
        part = st.part
        budget_tuples = self._budget_tuples()
        quadrants = (
            ("AH_BH", "AH*BH", pf.cpu, pf.gpu, part.a.high_rows,
             part.b.high_mask, "HH", "cpu:AH*BH"),
            ("AL_BL", "AL*BL", pf.gpu, pf.cpu, part.a.low_rows,
             ~part.b.high_mask, "LL", "gpu:AL*BL"),
        )
        for metric_tag, tag, device, fallback, rows, mask, ctx_key, label in quadrants:
            chunks = self._phase2_row_chunks(st, rows, mask, budget_tuples)
            for ci, chunk in enumerate(chunks):
                lbl = label if len(chunks) == 1 else f"{label}[chunk{ci}]"
                run, kind = run_product_resilient(
                    device, fallback, inj, "II", lbl, st.a, st.b,
                    st.contexts[ctx_key], a_rows=chunk, b_row_mask=mask,
                    kernel=self.kernel, backend=self._kernel_backend,
                )
                part_out = run.part
                if inj is not None:
                    part_out = inj.corrupt_part(
                        kind, part_out,
                        backend=self.backend, now=run.end,
                    )
                st.phase2_parts.append(part_out)
                if kind == "gpu":
                    st.gpu_tuples += run.tuples
                    pf.stream_tuples_download(
                        "II", f"xfer:tuples:{tag}", run.tuples,
                        produced_from=run.start,
                    )
                if METRICS.enabled:
                    METRICS.inc(f"quadrant.{metric_tag}.tuples", run.tuples)
                    METRICS.inc(f"quadrant.{metric_tag}.flops", run.flops)

    def build_queue(self, st: HHCPURunState) -> None:
        """Assemble the Phase III double-ended workqueue.

        Deterministic given the partition and unit sizes — resuming
        rebuilds the identical queue and restores only its cursors/log.
        """
        part = st.part
        # an empty B class makes the corresponding cross product vanish;
        # a real implementation would not enqueue those work-units at all
        al_bh_rows = part.a.low_rows if part.b.n_high > 0 else part.a.low_rows[:0]
        ah_bl_rows = part.a.high_rows if part.b.n_low > 0 else part.a.high_rows[:0]
        st.queue = DoubleEndedWorkQueue.build(
            al_bh_rows, ah_bl_rows,
            cpu_rows=self.cpu_rows, gpu_rows=self.gpu_rows,
        )

    def _make_executor(self, st: HHCPURunState):
        pf = self.platform
        calib = pf.calibration

        def execute(kind: str, unit: WorkUnit) -> COOMatrix:
            if unit.product == "AL_BH":
                mask, ctx = st.part.b.high_mask, st.contexts["LH"]
            else:
                mask, ctx = ~st.part.b.high_mask, st.contexts["HL"]
            device = pf.cpu if kind == "cpu" else pf.gpu
            overhead = (
                calib.cpu_workunit_overhead_s
                if kind == "cpu"
                else calib.gpu_workunit_overhead_s
            )
            run = run_product(
                device, "III", f"{kind}:{unit.product}[{unit.index}]",
                st.a, st.b, ctx, a_rows=unit.rows, b_row_mask=mask,
                kernel=self.kernel, backend=self._kernel_backend,
                extra_overhead=overhead,
            )
            if METRICS.enabled:
                METRICS.inc(f"quadrant.{unit.product}.tuples", run.tuples)
                METRICS.inc(f"quadrant.{unit.product}.flops", run.flops)
            if kind == "gpu":
                st.phase3_gpu_tuples += run.tuples
                pf.stream_tuples_download(
                    "III", f"xfer:tuples:{unit.product}[{unit.index}]", run.tuples,
                    produced_from=run.start,
                )
            part = run.part
            if self.faults is not None:
                part = self.faults.corrupt_part(
                    kind, part,
                    backend=self.backend, now=run.end,
                )
            return part

        return execute

    def run_phase3(
        self,
        st: HHCPURunState,
        *,
        max_units: int | None = None,
        deadline_s: float | None = None,
        carry: Phase3Carry | None = None,
    ) -> Phase3Outcome:
        """Drain the Phase III queue (or one slice of it).

        Returns the *slice* outcome; the accumulated outcome across
        slices lives in ``st.outcome``.  ``outcome.stopped`` tells a
        sliced driver whether work remains.
        """
        slice_outcome = run_workqueue_phase(
            self.platform, st.queue, self._make_executor(st),
            gpu_batch_rows=self.gpu_rows, faults=self.faults, retry=self.retry,
            max_units=max_units, deadline_s=deadline_s, carry=carry,
            tiebreak=self.schedule_tiebreak,
        )
        st.outcome.accumulate(slice_outcome)
        return slice_outcome

    def run_phase4(self, st: HHCPURunState) -> SpmmResult:
        """Phase IV: land the GPU tuples and merge everything to CSR."""
        pf = self.platform
        a, b = st.a, st.b
        outcome = st.outcome
        gpu_tuples = st.gpu_tuples + st.phase3_gpu_tuples
        pf.sync_downloads("IV", "xfer:gpu-tuples:wait")
        parts = [*st.phase2_parts, *outcome.parts]
        budget_tuples = self._budget_tuples()
        with SPANS.span("phase4:merge-tuples", category="merge") as sp:
            if (
                budget_tuples is not None
                and sum(p.nnz for p in parts) > budget_tuples
            ):
                merged = merge_tuples_grouped(
                    (a.nrows, b.ncols), parts, max_group_tuples=budget_tuples
                )
            else:
                merged = merge_tuples((a.nrows, b.ncols), parts)
            # every stream is row-locally sorted, so Phase IV is a linear
            # multiway merge (the paper's Fig 4 merge of neighbouring
            # like-tuples), not a global sort
            event = pf.cpu.busy(
                "IV", "cpu:merge-tuples",
                pf.cpu.merge_time(merged.stats.tuples_in, needs_sort=False),
                tuples=merged.stats.tuples_in,
            )
            if sp is not None:
                sp.set_sim(event.start, event.end, device=pf.cpu.name, phase="IV")
        if METRICS.enabled:
            METRICS.inc("phase4.tuples_merged", merged.stats.tuples_in)
            METRICS.inc("phase4.masters", merged.stats.masters)
            METRICS.set_gauge(
                "phase4.duplication_ratio", merged.stats.duplication_ratio
            )
        total = pf.barrier()

        trace = pf.trace
        details = {
            "partition": st.part.summary(),
            "cpu_units": outcome.cpu_units,
            "gpu_units": outcome.gpu_units,
            "cpu_stolen": outcome.cpu_stolen,
            "gpu_stolen": outcome.gpu_stolen,
            "gpu_tuples": gpu_tuples,
            "thresholds": (st.t_a, st.t_b),
        }
        if self.faults is not None:
            details["faults"] = {
                "dead_devices": outcome.dead_devices or self.faults.dead_devices,
                "retries": outcome.retries,
                "timeouts": outcome.timeouts,
                "requeues": outcome.requeues,
                "failover_units": outcome.failover_units,
                "failover_rows": outcome.failover_rows,
            }
        return SpmmResult(
            algorithm=self.name,
            matrix=merged.matrix,
            total_time=total,
            phase_times=trace.phase_times(),
            device_busy={d: trace.busy_time(device=d) for d in trace.devices()},
            merge_stats=merged.stats,
            trace=trace,
            details=details,
        )


def hhcpu_multiply(a: CSRMatrix, b: CSRMatrix, **kwargs) -> SpmmResult:
    """One-shot convenience wrapper: ``HHCPU(**kwargs).multiply(a, b)``."""
    platform = kwargs.pop("platform", None)
    return HHCPU(platform, **kwargs).multiply(a, b)
