"""The declared metric-name catalog: the single source of truth.

Every metric the library emits through :data:`repro.obs.metrics.METRICS`
is declared here, once, with its kind and unit.  Two consumers read the
catalog and *must* stay in sync by construction:

- the **MET001 lint rule** (:mod:`repro.lint.rules.metrics_rules`)
  statically checks every ``METRICS.inc/set_gauge/observe/timer`` name
  literal against it;
- :class:`~repro.obs.metrics.MetricsRegistry` validates names and kinds
  at runtime when constructed with ``validate=True`` (the test suite
  runs the profile driver under a validating registry).

Names may contain ``{placeholder}`` segments for families minted with
f-strings at the call site (``quadrant.{product}.tuples``).  A
placeholder matches exactly one dot-path segment, so declared families
stay as narrow as the call sites that emit them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_KIND_COUNTER = "counter"
_KIND_GAUGE = "gauge"
_KIND_TIMER = "timer"
_KIND_HISTOGRAM = "histogram"

#: placeholder syntax inside a declared name: ``{word}``
_PLACEHOLDER = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")

#: what the lint rule substitutes for an f-string's formatted values
#: before matching against the catalog (never a dot, so it occupies
#: exactly one segment, like any real formatted value is expected to)
FSTRING_SENTINEL = "\x00"


@dataclass(frozen=True)
class MetricSpec:
    """One declared metric (or ``{placeholder}`` family of metrics)."""

    name: str
    kind: str
    unit: str
    description: str

    def pattern(self) -> re.Pattern:
        """Compiled regex matching every concrete name of this spec."""
        parts = []
        last = 0
        for m in _PLACEHOLDER.finditer(self.name):
            parts.append(re.escape(self.name[last:m.start()]))
            parts.append(r"[^.]+")
            last = m.end()
        parts.append(re.escape(self.name[last:]))
        return re.compile("^" + "".join(parts) + "$")


def _c(name: str, unit: str, description: str) -> MetricSpec:
    return MetricSpec(name, _KIND_COUNTER, unit, description)


def _g(name: str, unit: str, description: str) -> MetricSpec:
    return MetricSpec(name, _KIND_GAUGE, unit, description)


def _t(name: str, unit: str, description: str) -> MetricSpec:
    return MetricSpec(name, _KIND_TIMER, unit, description)


def _h(name: str, unit: str, description: str) -> MetricSpec:
    return MetricSpec(name, _KIND_HISTOGRAM, unit, description)


#: every metric the library may emit, sorted by name within subsystem
CATALOG: tuple[MetricSpec, ...] = (
    # -- cost models -------------------------------------------------------
    _c("costmodel.cpu.b_bytes_requested", "bytes", "B traffic the CPU model was asked for"),
    _c("costmodel.cpu.b_bytes_fetched", "bytes", "B traffic the CPU model charged to DRAM"),
    _g("costmodel.cpu.cache_hit_fraction", "fraction", "share of B traffic served by the LLC"),
    _c("costmodel.gpu.b_bytes_requested", "bytes", "B traffic the GPU model was asked for"),
    _c("costmodel.gpu.b_bytes_fetched", "bytes", "B traffic the GPU model charged to DRAM"),
    _g("costmodel.gpu.cache_hit_fraction", "fraction", "share of B traffic served by L2"),
    # -- HH-CPU phases -----------------------------------------------------
    _c("phase1.rows_classified", "rows", "rows classified high/low in Phase I"),
    _g("phase1.partition.{key}", "count", "partition summary entry (rows/nnz per class)"),
    _c("quadrant.{product}.tuples", "tuples", "locally-merged nnz per cross-product quadrant"),
    _c("quadrant.{product}.flops", "flops", "multiply-adds per cross-product quadrant"),
    _c("phase4.tuples_merged", "tuples", "tuples entering the Phase IV global merge"),
    _c("phase4.masters", "indices", "master (unique) indices out of the global merge"),
    _g("phase4.duplication_ratio", "ratio", "tuples_in / masters for the global merge"),
    # -- input validation gate ---------------------------------------------
    _c("formats.validate.gated", "operands", "operands passed through the validation gate"),
    _c("formats.validate.repaired", "operands", "non-canonical operands repaired by the gate"),
    # -- Phase III workqueue -----------------------------------------------
    _c("phase3.workqueue.front.units", "units", "work-units enqueued at the CPU end"),
    _c("phase3.workqueue.back.units", "units", "work-units enqueued at the GPU end"),
    _c("phase3.workqueue.back.batched_launches", "launches", "batched GPU dequeues"),
    _c("phase3.workqueue.back.batched_units", "units", "work-units covered by batched dequeues"),
    _c("phase3.workqueue.{device}.dequeues", "units", "work-units a device dequeued"),
    _c("phase3.workqueue.{device}.rows", "rows", "A-rows a device processed in Phase III"),
    _c("phase3.workqueue.{device}.steals", "units", "cross-end (stolen) work-units"),
    _g("phase3.workqueue.{device}.starvation_s", "seconds", "simulated idle at the phase barrier"),
    _c("phase3.workqueue.requeues", "units", "work-units put back after a failed attempt"),
    _c("phase3.failover.units", "units", "dequeues executed by a survivor after its peer died"),
    _c("phase3.failover.rows", "rows", "A-rows a survivor absorbed after its peer died"),
    _c("phase3.deadline.curtailed_units", "units", "work-units curtailed + requeued at the deadline"),
    _h("phase3.unit.sim_s", "seconds", "simulated per-work-unit latency distribution in Phase III"),
    # -- fault injection & degradation -------------------------------------
    _c("faults.crash.events", "crashes", "device crashes observed by the scheduler"),
    _g("faults.device.{device}.crashed_at_s", "seconds", "simulated time a device died"),
    _c("faults.stall.events", "stalls", "dequeue stalls fired"),
    _c("faults.stall.seconds", "seconds", "simulated time lost to dequeue stalls"),
    _c("faults.transfer.errors", "errors", "transient PCIe transfer failures injected"),
    _c("faults.transfer.retry_s", "seconds", "extra wire time paid to transfer retries"),
    _c("faults.unit.errors", "errors", "transient work-unit attempt failures injected"),
    _c("faults.unit.timeouts", "timeouts", "work-unit attempts abandoned by the watchdog"),
    _c("faults.unit.retries", "attempts", "work-unit attempts retried after a fault"),
    _c("faults.unit.lost_s", "seconds", "simulated compute discarded by curtailed attempts"),
    _c("faults.retry.backoff_s", "seconds", "simulated backoff delay paid before retries"),
    _c("faults.corrupt.events", "corruptions", "silent result corruptions injected into partials"),
    _c("faults.executor.crashes", "crashes", "executor crashes injected at checkpoint boundaries"),
    # -- kernels -----------------------------------------------------------
    _c("kernels.esc.launches", "launches", "ESC kernel launches"),
    _c("kernels.esc.flops", "flops", "ESC multiply-adds"),
    _c("kernels.esc.tuples", "tuples", "ESC output tuples after local reduce"),
    _c("kernels.esc.expanded", "tuples", "ESC expanded (pre-reduce) tuples"),
    _c("kernels.merge.calls", "calls", "k-way merge invocations"),
    _c("kernels.merge.tuples_in", "tuples", "tuples entering merges"),
    _c("kernels.merge.reduce_ops", "ops", "duplicate reductions performed"),
    _c("kernels.merge.sort_ops", "ops", "comparison work attributed to merge sorting"),
    _c("kernels.merge.grouped_calls", "calls", "memory-bounded hierarchical merge invocations"),
    _c("kernels.merge.groups", "groups", "part groups formed by bounded merges"),
    _c("kernels.hash.launches", "launches", "scalar-oracle (dictionary walk) launches"),
    _c("kernels.hash.probes", "probes", "scalar-oracle dictionary probes"),
    _c("kernels.hash.collisions", "probes", "probes that hit an occupied slot"),
    # -- profile-driver derived gauges -------------------------------------
    _g("trace.phase.{phase}.time_s", "seconds", "per-phase simulated time (max over devices)"),
    _g("trace.phase.{phase}.gap_abs_s", "seconds", "within-phase device gap, absolute"),
    _g("trace.phase.{phase}.gap_rel", "fraction", "within-phase device gap / phase max"),
    _g("trace.device.{device}.busy_s", "seconds", "per-device simulated busy time"),
    _g("trace.makespan_s", "seconds", "simulated makespan of the run"),
    _g("result.total_time_s", "seconds", "modelled total time reported by the algorithm"),
    _g("result.nnz", "nnz", "nnz of the result matrix"),
    _t("profile.run_wall_s", "seconds", "host wall clock of the profiled run"),
    # -- benchmark harness -------------------------------------------------
    _c("bench.cases", "cases", "benchmark cases executed and verified"),
    _c("bench.repeats", "runs", "timed repeats across all bench cases"),
    _c("bench.verifications", "checks", "bit-identity verifications against the scipy oracle"),
    _t("bench.case.{case}.wall_s", "seconds", "host wall clock per timed repeat of one case"),
    _h("bench.case.{case}.wall_hist_s", "seconds", "host wall-clock distribution (exact percentiles) per case"),
    _g("bench.case.{case}.sim_time_s", "seconds", "modelled platform time of an end-to-end case"),
    # -- schedule sanitizer ------------------------------------------------
    _c("sanitize.schedules.run", "runs", "schedules executed by the perturbation harness"),
    _c("sanitize.schedules.mismatched", "mismatches", "fingerprint mismatches across perturbed schedules"),
    _c("sanitize.checks", "checks", "RSan hook checks performed across sanitized runs"),
    _c("sanitize.violations", "violations", "RSan concurrency violations observed"),
    # -- durable job runner ------------------------------------------------
    _c("jobs.budget.phase2_chunks", "chunks", "budgeted Phase II row-chunk launches"),
    _c("jobs.checkpoint.writes", "checkpoints", "checkpoints written by the job runner"),
    _c("jobs.checkpoint.bytes", "bytes", "bytes written to checkpoint files"),
    _c("jobs.checkpoint.corrupt", "checkpoints", "checkpoints rejected as corrupt during discovery"),
    _c("jobs.resume.count", "resumes", "runs resumed from a checkpoint"),
    _g("jobs.resume.from_seq", "seq", "sequence number of the checkpoint a run resumed from"),
    _c("jobs.run.completed", "runs", "durable jobs that ran to completion"),
    _c("jobs.deadline.exhausted", "events", "jobs stopped (checkpointed) at the deadline budget"),
    _h("jobs.stage.sim_s", "seconds", "simulated per-stage latency distribution of a durable job"),
    # -- multi-tenant job service ------------------------------------------
    _c("service.requests.submitted", "requests", "requests submitted to the job service"),
    _c("service.requests.completed", "requests", "requests served to completion"),
    _c("service.requests.rejected", "requests", "requests rejected by admission control"),
    _c("service.requests.cancelled", "requests", "queued requests cancelled by their tenant"),
    _c("service.requests.failed", "requests", "requests whose execution raised"),
    _c("service.requests.quarantined", "requests", "requests refused or retired into quarantine"),
    _c("service.batch.launches", "launches", "fused executions dispatched by the service"),
    _c("service.batch.requests", "requests", "requests covered by fused executions"),
    _g("service.queue.depth", "requests", "requests currently queued (not yet dispatched)"),
    _g("service.inflight.tuples", "tuples", "symbolic intermediate tuples of in-flight executions"),
    _h("service.request.sim_latency_s", "seconds", "simulated submit-to-finish request latency"),
    # -- resilience layer --------------------------------------------------
    _c("resilience.verify.checks", "checks", "end-to-end result verifications performed"),
    _c("resilience.verify.rows", "rows", "result rows spot re-executed against the reference backend"),
    _c("resilience.corrupt.detected", "corruptions", "corrupted results caught by the verifier"),
    _c("resilience.corrupt.retries", "attempts", "executions retried after a failed verification"),
    _c("resilience.executor.crashes", "crashes", "executor crash-resume cycles survived"),
    _c("resilience.quarantine.jobs", "requests", "requests retired into quarantine"),
    _c("resilience.quarantine.submits", "requests", "submissions refused because their key is quarantined"),
    _g("resilience.quarantine.keys", "keys", "poison keys currently quarantined"),
    _c("resilience.breaker.trips", "trips", "circuit-breaker transitions into OPEN"),
    _c("resilience.breaker.closes", "closes", "circuit-breaker recoveries into CLOSED"),
    _c("resilience.breaker.half_open_probes", "probes", "half-open probe executions admitted"),
    _c("resilience.breaker.degraded_dispatches", "dispatches", "executions served below the configured backend"),
    _g("resilience.breaker.{backend}.state", "state", "breaker state gauge (0 closed / 1 half-open / 2 open)"),
    _c("resilience.shed.requests", "requests", "requests shed by brownout admission"),
    _g("resilience.shed.level", "level", "current brownout level (0 none / 1 low / 2 low+normal)"),
    # -- load generator ----------------------------------------------------
    _c("loadgen.arrivals", "requests", "requests the load generator submitted"),
    _c("loadgen.repetitions", "runs", "load-experiment repetitions executed"),
)

_COMPILED: tuple[tuple[re.Pattern, MetricSpec], ...] = tuple(
    (spec.pattern(), spec) for spec in CATALOG
)


def spec_for(name: str) -> MetricSpec | None:
    """The :class:`MetricSpec` a concrete (or sentinel-bearing) metric
    name falls under, or None if it is undeclared."""
    for pattern, spec in _COMPILED:
        if pattern.match(name):
            return spec
    return None


def is_declared(name: str, kind: str | None = None) -> bool:
    """Whether ``name`` is declared (and, if given, with ``kind``)."""
    spec = spec_for(name)
    if spec is None:
        return False
    return kind is None or spec.kind == kind


def declared_names() -> list[str]:
    """Every declared name/family, sorted (for docs and reports)."""
    return sorted(spec.name for spec in CATALOG)
