"""The multi-tenant async job service over the HH-CPU pipeline.

:class:`JobService` turns the one-shot multiply of
:class:`repro.core.hhcpu.HHCPU` (and the stage-granular
:class:`repro.jobs.runner.JobRunner` built on it) into a *serving*
layer: many tenants submit multiply requests concurrently, the service
admits or rejects them under a symbolic memory budget, queues the
admitted ones, batches compatible multiplies into a single pipeline
execution, and schedules dispatch with per-tenant weighted fair sharing
inside strict priority classes.

Determinism is the design center, exactly as everywhere else in the
repo: **all time is simulated** (the service clock only moves through
:meth:`JobService.advance_to` / :meth:`JobService.step`; CLK001 bans
host clocks here) and the layer itself consumes no randomness — given
the same submission sequence (same ``at`` times, same order) every run
replays bit-identically, byte-for-byte in the flight recorder.  The
load generator (:mod:`repro.service.loadgen`) layers seeded arrival
processes on top through :mod:`repro.util.rng`.

Scheduling policy (documented invariants, property-tested in
``tests/test_service_properties.py``):

- **Priority classes are strict.**  Dispatch always picks the queued
  job with the best (lowest-rank) priority first; a ``high`` job never
  waits behind a ``normal``/``low`` job that arrived at the same time.
- **Fair share within a class.**  Among equal-priority jobs the tenant
  with the smallest *virtual time* goes first; a dispatched execution
  charges each participating tenant ``duration / (members × weight)``,
  so heavier-weighted tenants drain proportionally faster.  Ties break
  on job id (submission order) — fully deterministic.
- **Admission control is checked at submit time** in a fixed order:
  ``request_too_large`` (the single request's symbolic intermediate
  tuples exceed the whole budget), ``queue_full`` (queue depth), then
  ``tenant_quota`` (per-tenant pending cap).  A rejected job still
  gets a :class:`JobRecord`; its :class:`ResourceExhausted` carries the
  budget arithmetic in ``context``.
- **The memory budget is never bypassed.**  At dispatch time the
  selected batch must fit the remaining in-flight tuple budget; if it
  does not, dispatch *stops* rather than skipping to a smaller job —
  the head of the queue cannot be starved by a stream of small
  requests, and the priority invariant survives.
- **Batching never reorders across priorities.**  A batch is the
  selected head job plus up to ``max_batch - 1`` queued jobs with the
  *same* workload label, operand pair, fault schedule, and priority
  class; compatible multiplies are computed once and the result is
  shared among the members.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Callable, Mapping, Protocol

from repro.obs.events import EVENTS
from repro.obs.metrics import METRICS
from repro.resilience.config import ResilienceConfig
from repro.resilience.quarantine import QuarantineRegistry, poison_key
from repro.resilience.shedding import BrownoutController
from repro.util.errors import CorruptResultError, ResourceExhausted, ServiceError

#: priority classes, best first; rank = index
PRIORITIES: tuple[str, ...] = ("high", "normal", "low")

#: bytes per symbolic intermediate tuple (mirrors repro.core.hhcpu)
TUPLE_BYTES = 24

# job lifecycle states
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
REJECTED = "rejected"
CANCELLED = "cancelled"
FAILED = "failed"
#: the job's (workload, fault schedule) signature produced corrupt
#: results past the retry budget, or matches an already-poisoned
#: signature — the result is withheld (see repro.resilience.quarantine)
QUARANTINED = "quarantined"

#: states a job can end in — exactly one of these, always (conservation)
TERMINAL: frozenset[str] = frozenset(
    {COMPLETED, REJECTED, CANCELLED, FAILED, QUARANTINED}
)


def priority_rank(priority: str) -> int:
    """0 = best.  Unknown priorities fail loudly at submit time."""
    try:
        return PRIORITIES.index(priority)
    except ValueError:
        raise ServiceError(
            f"unknown priority {priority!r}; choose from {PRIORITIES}",
            priority=priority,
        ) from None


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission/fair-share parameters."""

    #: max jobs simultaneously queued+running for this tenant
    max_pending: int = 8
    #: fair-share weight (bigger = larger share of the service)
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.max_pending <= 0:
            raise ServiceError("max_pending must be positive")
        if not self.weight > 0:
            raise ServiceError("weight must be positive")


@dataclass(frozen=True)
class ServiceConfig:
    """Everything that shapes admission, scheduling, and execution."""

    #: concurrent executions (a batch occupies one worker until done)
    workers: int = 2
    #: max jobs queued (not yet dispatched) across all tenants
    queue_depth: int = 64
    #: symbolic memory budget over *in-flight* intermediate tuples
    #: (bytes, ``TUPLE_BYTES`` per tuple); None = unbounded
    mem_budget_bytes: int | None = None
    #: fuse compatible queued multiplies into one execution
    batching: bool = True
    #: max requests per fused execution
    max_batch: int = 8
    #: pipeline knobs forwarded to :class:`repro.core.hhcpu.HHCPU`
    kernel: str = "esc"
    #: kernel backend: "numpy" (the engine) or "reference" (the scalar
    #: oracle); see :data:`repro.kernels.BACKENDS`
    backend: str = "numpy"
    cpu_rows: int = 1_000
    gpu_rows: int = 10_000
    #: per-tenant overrides; tenants not listed get ``default_quota``
    quotas: Mapping[str, TenantQuota] = field(default_factory=dict)
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    #: arm the resilience layer (checkpointed executor, verification +
    #: quarantine, circuit breakers, brownout shedding); None keeps the
    #: plain :class:`PipelineExecutor`
    resilience: ResilienceConfig | None = None

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ServiceError("workers must be positive")
        if self.queue_depth <= 0:
            raise ServiceError("queue_depth must be positive")
        if self.max_batch <= 0:
            raise ServiceError("max_batch must be positive")
        if self.mem_budget_bytes is not None and self.mem_budget_bytes <= 0:
            raise ServiceError("mem_budget_bytes must be positive when given")

    def quota_for(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)

    def budget_tuples(self) -> int | None:
        if self.mem_budget_bytes is None:
            return None
        return max(1, self.mem_budget_bytes // TUPLE_BYTES)

    def as_dict(self) -> dict[str, object]:
        """JSON-roundtrippable form (provenance headers, ``--mix`` files)."""
        return {
            "workers": self.workers,
            "queue_depth": self.queue_depth,
            "mem_budget_bytes": self.mem_budget_bytes,
            "batching": self.batching,
            "max_batch": self.max_batch,
            "kernel": self.kernel,
            "backend": self.backend,
            "cpu_rows": self.cpu_rows,
            "gpu_rows": self.gpu_rows,
            "quotas": {
                name: {"max_pending": q.max_pending, "weight": q.weight}
                for name, q in sorted(self.quotas.items())
            },
            "default_quota": {
                "max_pending": self.default_quota.max_pending,
                "weight": self.default_quota.weight,
            },
            "resilience": (
                self.resilience.as_dict() if self.resilience else None
            ),
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "ServiceConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ServiceError(
                f"unknown service config field(s): {sorted(unknown)}",
                fields=sorted(unknown),
            )
        kwargs: dict[str, object] = dict(doc)
        quotas = kwargs.pop("quotas", None)
        if quotas is not None:
            if not isinstance(quotas, Mapping):
                raise ServiceError("'quotas' must be a mapping of tenant -> quota")
            kwargs["quotas"] = {
                str(name): TenantQuota(**dict(q)) for name, q in quotas.items()
            }
        default = kwargs.pop("default_quota", None)
        if default is not None:
            kwargs["default_quota"] = TenantQuota(**dict(default))
        resilience = kwargs.get("resilience")
        if isinstance(resilience, Mapping):
            kwargs["resilience"] = ResilienceConfig.from_dict(dict(resilience))
        return cls(**kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class JobRequest:
    """One multiply a tenant wants served.

    ``workload`` is the label batching keys on (a
    :mod:`repro.bench.workloads` name in practice); ``a``/``b`` are the
    operands.  ``est_tuples`` is the symbolic intermediate-tuple count
    admission charges; when None it is derived from the operands
    (``sum over stored A entries (i,k) of nnz(B row k)`` — the paper's
    intermediate-products measure).
    """

    tenant: str
    workload: str
    priority: str = "normal"
    a: object | None = None
    b: object | None = None
    #: per-request fault schedule (a FaultSpec), forwarded to the pipeline
    faults: object | None = None
    est_tuples: int | None = None

    def estimated_tuples(self) -> int:
        if self.est_tuples is not None:
            return int(self.est_tuples)
        if self.a is None or self.b is None:
            return 0
        row_nnz = self.b.row_nnz()  # type: ignore[attr-defined]
        indices = self.a.indices  # type: ignore[attr-defined]
        return int(row_nnz[indices].sum())

    def compat_key(self) -> tuple[str, int, int, str, str]:
        """Batching compatibility: same workload, operands, faults, class."""
        if self.faults is None:
            faults_key = ""
        else:
            as_dict = getattr(self.faults, "as_dict", None)
            faults_key = (
                json.dumps(as_dict(), sort_keys=True)
                if callable(as_dict)
                else repr(self.faults)
            )
        return (self.workload, id(self.a), id(self.b), faults_key, self.priority)


@dataclass
class JobRecord:
    """Mutable lifecycle record of one submitted job."""

    job_id: str
    request: JobRequest
    status: str = QUEUED
    submit_t: float = 0.0
    start_t: float | None = None
    end_t: float | None = None
    #: stored rejection/failure cause, re-raised by :meth:`JobService.result`
    error: BaseException | None = None
    result: object | None = None
    batch_id: str | None = None

    @property
    def sim_latency_s(self) -> float | None:
        """Submit-to-finish latency on the simulated clock."""
        if self.end_t is None:
            return None
        return self.end_t - self.submit_t


@dataclass(frozen=True)
class ExecOutcome:
    """What an executor reports back for one (batched) execution.

    The resilience fields default to zero/None so plain executors (and
    test doubles) keep constructing outcomes positionally; the
    :class:`repro.resilience.executor.ResilientExecutor` fills them
    from its supervised execution loop.
    """

    sim_duration_s: float
    result: object | None = None
    #: snapshots durably written while executing this request
    checkpoints: int = 0
    #: resumes performed after injected executor crashes
    resumes: int = 0
    #: injected executor crashes survived
    crashes: int = 0
    #: verification-failed attempts before the delivered result
    corrupt_retries: int = 0
    #: backend that produced the delivered result (None = unreported)
    backend: str | None = None
    #: True when a tripped breaker degraded this execution off the
    #: configured backend
    degraded: bool = False


class Executor(Protocol):
    """Synchronously execute one request, report simulated duration."""

    def execute(self, request: JobRequest) -> ExecOutcome: ...


class PipelineExecutor:
    """The real executor: a fresh HH-CPU pipeline per execution.

    Each execution gets its own simulated platform starting at clock 0
    (matching every other entry point in the repo), so a request's
    fault schedule replays identically no matter when the service
    dispatches it.  The service-level memory budget is *admission*
    control over concurrent in-flight work; it is deliberately not
    forwarded as the pipeline's Phase II chunking budget, which would
    change single-run simulated times.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self._config = config

    def execute(self, request: JobRequest) -> ExecOutcome:
        from repro.core.hhcpu import HHCPU

        if request.a is None or request.b is None:
            raise ServiceError(
                "request carries no operands; the pipeline executor needs "
                "both A and B",
                workload=request.workload,
            )
        pipeline = HHCPU(
            kernel=self._config.kernel,
            backend=self._config.backend,
            cpu_rows=self._config.cpu_rows,
            gpu_rows=self._config.gpu_rows,
            faults=request.faults,  # type: ignore[arg-type]
        )
        result = pipeline.multiply(request.a, request.b)  # type: ignore[arg-type]
        return ExecOutcome(sim_duration_s=float(result.total_time), result=result)


@dataclass
class _Launch:
    """One in-flight execution (a batch of ≥1 member jobs)."""

    batch_id: str
    members: list[JobRecord]
    est_tuples: int
    end_t: float
    outcome: ExecOutcome | None
    error: BaseException | None = None


class JobService:
    """Deterministic multi-tenant job queue over the HH-CPU pipeline.

    The public surface is submit/status/result/cancel plus explicit
    clock control (:meth:`advance_to`, :meth:`step`, :meth:`drain`).
    The service never moves time on its own: callers (the load
    generator, tests, the ``repro serve`` CLI) decide when the
    simulated clock advances, which is what makes arbitrary submission
    interleavings replayable.
    """

    def __init__(self, config: ServiceConfig | None = None,
                 executor: Executor | None = None) -> None:
        self.config = config or ServiceConfig()
        if executor is None:
            if self.config.resilience is not None:
                # imported lazily: repro.resilience.executor imports
                # this module back (for ExecOutcome at runtime)
                from repro.resilience.executor import ResilientExecutor

                executor = ResilientExecutor(self.config)
            else:
                executor = PipelineExecutor(self.config)
        self.executor: Executor = executor
        #: armed only under a resilience config: the poison deny-list
        #: and the brownout shed controller
        self.quarantine: QuarantineRegistry | None = None
        self._brownout: BrownoutController | None = None
        if self.config.resilience is not None:
            self.quarantine = QuarantineRegistry()
            if self.config.resilience.brownout is not None:
                self._brownout = BrownoutController(
                    self.config.resilience.brownout
                )
        bind_clock = getattr(self.executor, "bind_clock", None)
        if callable(bind_clock):
            # clock-aware executors (breaker cooldowns) read the
            # service's simulated clock, never a clock of their own
            bind_clock(lambda: self._now)
        self._now = 0.0
        self._next_job = 0
        self._next_batch = 0
        self._next_completion_seq = 0
        self.jobs: dict[str, JobRecord] = {}
        #: queued job ids in submission order
        self._queue: list[str] = []
        #: (end_t, seq, launch) min-heap of in-flight executions
        self._inflight: list[tuple[float, int, _Launch]] = []
        self._inflight_tuples = 0
        #: per-tenant fair-share virtual time
        self._vtime: dict[str, float] = {}
        #: per-tenant queued+running counts (and their observed peaks)
        self._pending: dict[str, int] = {}
        self.peak_pending: dict[str, int] = {}

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """The service's simulated clock (seconds)."""
        return self._now

    def next_completion_time(self) -> float | None:
        """When the earliest in-flight execution finishes, or None.

        Flushes pending dispatch first: dispatch is *lazy* — decisions
        are made only when the clock is observed or moved, never inside
        :meth:`submit` — so every arrival at simulated time ``t`` is on
        the queue before any dispatch decision at ``t``.  That is what
        makes the priority invariant exact: a ``high`` job never waits
        behind a ``low`` job that arrived at the same simulated time,
        regardless of submission-call order.
        """
        self._dispatch()
        return self._inflight[0][0] if self._inflight else None

    def advance_to(self, t: float) -> None:
        """Move the clock to ``t``, retiring completions due on the way.

        Completions at exactly ``t`` are processed *before* the caller
        acts at ``t`` (an arrival at ``t`` sees slots freed at ``t``).
        When ``t`` equals the current time this retires due completions
        but makes **no** dispatch decision — more arrivals may still be
        submitted at this instant; dispatch happens once the clock
        moves past it (or :meth:`next_completion_time`/:meth:`step`
        flushes it).
        """
        if t < self._now:
            raise ServiceError(
                f"cannot move the service clock backwards ({t} < {self._now})",
                now=self._now, target=t,
            )
        if t > self._now:
            self._dispatch()
        while self._inflight and self._inflight[0][0] <= t:
            self._retire(heapq.heappop(self._inflight)[2])
            # a retired launch freed a worker (and budget) at its end
            # time; queued work dispatches there, not at t
            self._dispatch()
        self._now = t

    def step(self) -> bool:
        """Advance to the next completion; False when nothing to run."""
        nxt = self.next_completion_time()
        if nxt is None:
            return False
        self.advance_to(nxt)
        return True

    def drain(self) -> None:
        """Run the clock forward until every execution has retired."""
        while self.step():
            pass

    # -- submit / cancel -----------------------------------------------------
    def submit(self, request: JobRequest, *, at: float | None = None) -> str:
        """Admit (or reject) one request; returns its job id either way.

        ``at`` moves the clock forward to the arrival time first (the
        open-loop generator's idiom).  Rejection is not an exception at
        this boundary: the job record ends ``rejected`` with a
        :class:`ResourceExhausted` stored, and :meth:`result` re-raises
        it — so the submission loop of a load run never has to branch.

        Admitted jobs are queued, not started: dispatch is lazy (see
        :meth:`next_completion_time`), so every same-instant arrival is
        visible before any scheduling decision at that instant.
        """
        if at is not None:
            self.advance_to(at)
        priority_rank(request.priority)  # validate eagerly
        job_id = f"j{self._next_job:06d}"
        self._next_job += 1
        record = JobRecord(job_id=job_id, request=request, submit_t=self._now)
        self.jobs[job_id] = record
        if METRICS.enabled:
            METRICS.inc("service.requests.submitted")
        if EVENTS.enabled:
            EVENTS.emit(
                "service_submit", job=job_id, tenant=request.tenant,
                workload=request.workload, priority=request.priority,
                est_tuples=request.estimated_tuples(), sim_t=self._now,
            )

        rejection = self._admission_error(request)
        if rejection is not None:
            record.status = REJECTED
            record.end_t = self._now
            record.error = rejection
            if METRICS.enabled:
                METRICS.inc("service.requests.rejected")
            if EVENTS.enabled:
                EVENTS.emit(
                    "service_reject", job=job_id, tenant=request.tenant,
                    reason=str(rejection.context.get("reason")), sim_t=self._now,
                )
            return job_id

        if self.quarantine is not None:
            key = self._poison_key(request)
            if self.quarantine.is_quarantined(key):
                record.status = QUARANTINED
                record.end_t = self._now
                record.error = self.quarantine.refuse(key, now=self._now)
                if METRICS.enabled:
                    METRICS.inc("service.requests.quarantined")
                if EVENTS.enabled:
                    EVENTS.emit(
                        "service_quarantine", job=job_id,
                        tenant=request.tenant, at_submit=True, sim_t=self._now,
                    )
                return job_id

        if self._brownout is not None:
            utilization = self._utilization()
            level = self._brownout.update(utilization, self._now)
            if level and self._brownout.should_shed(request.priority):
                shed = self._brownout.shed_context(utilization)
                record.status = REJECTED
                record.end_t = self._now
                record.error = ResourceExhausted(
                    f"shed by brownout level {level}: the service is over "
                    "its pressure watermarks and this priority class is "
                    "being refused until pressure clears",
                    reason="brownout_shed",
                    tenant=request.tenant,
                    priority=request.priority,
                    **shed,
                )
                if METRICS.enabled:
                    METRICS.inc("service.requests.rejected")
                if EVENTS.enabled:
                    EVENTS.emit(
                        "service_reject", job=job_id, tenant=request.tenant,
                        reason="brownout_shed", level=level, sim_t=self._now,
                    )
                return job_id

        record.status = QUEUED
        self._queue.append(job_id)
        tenant = request.tenant
        if tenant not in self._vtime:
            # late joiners start at the floor of the active tenants'
            # virtual times — no catching up on service they never asked
            # for, no permanent head start either
            active = [
                self._vtime[t] for t, n in self._pending.items()
                if n > 0 and t in self._vtime
            ]
            self._vtime[tenant] = min(active) if active else 0.0
        self._pending[tenant] = self._pending.get(tenant, 0) + 1
        self.peak_pending[tenant] = max(
            self.peak_pending.get(tenant, 0), self._pending[tenant]
        )
        if METRICS.enabled:
            METRICS.set_gauge("service.queue.depth", float(len(self._queue)))
        return job_id

    def cancel(self, job_id: str) -> bool:
        """Cancel a still-queued job; running/terminal jobs are immune."""
        record = self._record(job_id)
        if record.status != QUEUED:
            return False
        self._queue.remove(job_id)
        record.status = CANCELLED
        record.end_t = self._now
        self._pending[record.request.tenant] -= 1
        if METRICS.enabled:
            METRICS.inc("service.requests.cancelled")
            METRICS.set_gauge("service.queue.depth", float(len(self._queue)))
        if EVENTS.enabled:
            EVENTS.emit(
                "service_cancel", job=job_id, tenant=record.request.tenant,
                sim_t=self._now,
            )
        return True

    # -- query ---------------------------------------------------------------
    def status(self, job_id: str) -> str:
        return self._record(job_id).status

    def result(self, job_id: str) -> object | None:
        """The completed job's result; failures/rejections re-raise."""
        record = self._record(job_id)
        if record.status == COMPLETED:
            return record.result
        if (
            record.status in (FAILED, REJECTED, QUARANTINED)
            and record.error is not None
        ):
            raise record.error
        raise ServiceError(
            f"job {job_id} has no result (status: {record.status})",
            job=job_id, status=record.status,
        )

    def counts(self) -> dict[str, int]:
        """How many jobs sit in each lifecycle state right now."""
        out = {s: 0 for s in (QUEUED, RUNNING, COMPLETED, REJECTED,
                              CANCELLED, FAILED, QUARANTINED)}
        for record in self.jobs.values():
            out[record.status] += 1
        return out

    def resilience_summary(self) -> dict[str, int]:
        """Aggregate resilience counters for run-table rows.

        Executor-side counts come from the executor's ``stats`` dict
        when it keeps one (the resilient executor does; plain and test
        executors report zeros); service-side counts (shed, quarantine)
        are owned here.
        """
        stats = getattr(self.executor, "stats", None)
        get = stats.get if isinstance(stats, dict) else lambda _k, d=0: d
        return {
            "checkpoints": int(get("checkpoints", 0)),
            "resumes": int(get("resumes", 0)),
            "crashes": int(get("crashes", 0)),
            "corrupt_detected": int(get("corrupt_detected", 0)),
            "corrupt_retries": int(get("corrupt_retries", 0)),
            "breaker_trips": int(get("breaker_trips", 0)),
            "degraded_dispatches": int(get("degraded_dispatches", 0)),
            "shed": self._brownout.shed_total if self._brownout else 0,
            "quarantined_keys": (
                len(self.quarantine) if self.quarantine else 0
            ),
        }

    # -- internals -----------------------------------------------------------
    def _record(self, job_id: str) -> JobRecord:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise ServiceError(f"unknown job id {job_id!r}", job=job_id) from None

    def _poison_key(self, request: JobRequest) -> str:
        as_dict = getattr(request.faults, "as_dict", None)
        faults = as_dict() if callable(as_dict) else None
        return poison_key(request.workload, faults)

    def _utilization(self) -> float:
        """In-flight symbolic tuples over the admission budget (0 when
        the service runs unbounded)."""
        budget = self.config.budget_tuples()
        if not budget:
            return 0.0
        return self._inflight_tuples / budget

    def _admission_error(self, request: JobRequest) -> ResourceExhausted | None:
        budget = self.config.budget_tuples()
        est = request.estimated_tuples()
        if budget is not None and est > budget:
            return ResourceExhausted(
                f"request needs {est} intermediate tuples "
                f"({est * TUPLE_BYTES} bytes), exceeding the whole "
                f"{self.config.mem_budget_bytes}-byte service budget",
                reason="request_too_large",
                budget_bytes=self.config.mem_budget_bytes,
                required_bytes=est * TUPLE_BYTES,
                tenant=request.tenant,
            )
        if len(self._queue) >= self.config.queue_depth:
            return ResourceExhausted(
                f"service queue is full ({self.config.queue_depth} jobs)",
                reason="queue_full",
                queue_depth=self.config.queue_depth,
                tenant=request.tenant,
            )
        quota = self.config.quota_for(request.tenant)
        if self._pending.get(request.tenant, 0) >= quota.max_pending:
            return ResourceExhausted(
                f"tenant {request.tenant!r} is at its pending quota "
                f"({quota.max_pending})",
                reason="tenant_quota",
                max_pending=quota.max_pending,
                tenant=request.tenant,
            )
        return None

    def _selection_key(self, job_id: str) -> tuple[int, float, str]:
        record = self.jobs[job_id]
        return (
            priority_rank(record.request.priority),
            self._vtime[record.request.tenant],
            job_id,
        )

    def _dispatch(self) -> None:
        while self._queue and len(self._inflight) < self.config.workers:
            head_id = min(self._queue, key=self._selection_key)
            head = self.jobs[head_id]
            est = head.request.estimated_tuples()
            budget = self.config.budget_tuples()
            if budget is not None and self._inflight_tuples + est > budget:
                # strict no-bypass policy: the head waits for in-flight
                # work to retire; nothing smaller jumps the queue
                return
            members = [head]
            if self.config.batching and self.config.max_batch > 1:
                key = head.request.compat_key()
                mates = [
                    self.jobs[jid] for jid in self._queue
                    if jid != head_id and self.jobs[jid].request.compat_key() == key
                ]
                mates.sort(key=lambda r: self._selection_key(r.job_id))
                members += mates[: self.config.max_batch - 1]
            self._launch(members, est)

    def _launch(self, members: list[JobRecord], est_tuples: int) -> None:
        batch_id = f"b{self._next_batch:06d}"
        self._next_batch += 1
        head = members[0]
        for record in members:
            self._queue.remove(record.job_id)
            record.status = RUNNING
            record.start_t = self._now
            record.batch_id = batch_id
        if METRICS.enabled:
            METRICS.inc("service.batch.launches")
            METRICS.inc("service.batch.requests", len(members))
            METRICS.set_gauge("service.queue.depth", float(len(self._queue)))
        outcome: ExecOutcome | None = None
        error: BaseException | None = None
        try:
            outcome = self.executor.execute(head.request)
        except Exception as exc:  # noqa: BLE001 — stored, re-raised by result()
            error = exc
        if outcome is not None and outcome.sim_duration_s < 0:
            error = ServiceError(
                "executor reported a negative simulated duration",
                duration=outcome.sim_duration_s,
            )
            outcome = None
        if error is not None:
            launch = _Launch(batch_id, members, 0, self._now, None, error)
            if EVENTS.enabled:
                EVENTS.emit(
                    "service_dispatch", batch=batch_id,
                    jobs=[r.job_id for r in members], sim_t=self._now,
                    status="failed",
                )
            self._retire(launch)
            return
        assert outcome is not None
        duration = outcome.sim_duration_s
        # fair-share charge: the execution's duration split across the
        # members, scaled down by each member's tenant weight
        share = duration / len(members)
        for record in members:
            tenant = record.request.tenant
            weight = self.config.quota_for(tenant).weight
            self._vtime[tenant] += share / weight
        end_t = self._now + duration
        launch = _Launch(batch_id, members, est_tuples, end_t, outcome)
        self._inflight_tuples += est_tuples
        if METRICS.enabled:
            METRICS.set_gauge(
                "service.inflight.tuples", float(self._inflight_tuples)
            )
        heapq.heappush(
            self._inflight, (end_t, self._next_completion_seq, launch)
        )
        self._next_completion_seq += 1
        if EVENTS.enabled:
            EVENTS.emit(
                "service_dispatch", batch=batch_id,
                jobs=[r.job_id for r in members], sim_t=self._now,
                sim_duration_s=duration, est_tuples=est_tuples,
            )

    def _retire(self, launch: _Launch) -> None:
        self._now = max(self._now, launch.end_t)
        self._inflight_tuples -= launch.est_tuples
        if METRICS.enabled:
            METRICS.set_gauge(
                "service.inflight.tuples", float(self._inflight_tuples)
            )
        quarantining = (
            self.quarantine is not None
            and isinstance(launch.error, CorruptResultError)
        )
        if quarantining:
            # the whole batch shares one (workload, faults) signature;
            # poison it so look-alike submissions are refused upfront
            assert self.quarantine is not None
            assert launch.error is not None
            key = self._poison_key(launch.members[0].request)
            self.quarantine.quarantine(
                key, launch.error, jobs=len(launch.members),  # type: ignore[arg-type]
                now=launch.end_t,
            )
        for record in launch.members:
            record.end_t = launch.end_t
            self._pending[record.request.tenant] -= 1
            if quarantining:
                record.status = QUARANTINED
                record.error = launch.error
                if METRICS.enabled:
                    METRICS.inc("service.requests.quarantined")
                if EVENTS.enabled:
                    EVENTS.emit(
                        "service_quarantine", job=record.job_id,
                        tenant=record.request.tenant, at_submit=False,
                        sim_t=launch.end_t,
                    )
            elif launch.error is not None:
                record.status = FAILED
                record.error = launch.error
                if METRICS.enabled:
                    METRICS.inc("service.requests.failed")
                if EVENTS.enabled:
                    EVENTS.emit(
                        "service_fail", job=record.job_id,
                        tenant=record.request.tenant,
                        error=type(launch.error).__name__, sim_t=launch.end_t,
                    )
            else:
                assert launch.outcome is not None
                record.status = COMPLETED
                record.result = launch.outcome.result
                latency = record.sim_latency_s
                if self._brownout is not None and latency is not None:
                    self._brownout.observe_completion(latency)
                if METRICS.enabled:
                    METRICS.inc("service.requests.completed")
                    if latency is not None:
                        METRICS.record("service.request.sim_latency_s", latency)
                if EVENTS.enabled:
                    EVENTS.emit(
                        "service_complete", job=record.job_id,
                        tenant=record.request.tenant,
                        sim_t=launch.end_t, sim_latency_s=latency,
                    )


def run_script(
    service: JobService,
    requests: list[dict[str, object]],
    *,
    make_request: Callable[[Mapping[str, object]], JobRequest],
) -> list[str]:
    """Drive a service through a scripted session (the ``repro serve``
    CLI's engine, kept here so tests can call it directly).

    Each entry is ``{"at": t, ...request fields...}`` and may carry
    ``"cancel_at": t2`` to cancel the submission later; entries must be
    sorted by ``at``.  Returns the job ids in submission order, with
    the service fully drained.
    """
    job_ids: list[str] = []
    cancels: list[tuple[float, int]] = []  # (cancel_at, index into job_ids)
    for i, entry in enumerate(requests):
        at = float(entry.get("at", 0.0))  # type: ignore[arg-type]
        # fire any cancels due before this arrival
        for when, idx in sorted(cancels):
            if when <= at and service.jobs[job_ids[idx]].status == QUEUED:
                service.advance_to(max(when, service.now))
                service.cancel(job_ids[idx])
        cancels = [(w, j) for w, j in cancels if w > at]
        job_ids.append(service.submit(make_request(entry), at=at))
        cancel_at = entry.get("cancel_at")
        if cancel_at is not None:
            cancels.append((float(cancel_at), i))  # type: ignore[arg-type]
    for when, idx in sorted(cancels):
        if service.jobs[job_ids[idx]].status == QUEUED:
            service.advance_to(max(when, service.now))
            service.cancel(job_ids[idx])
    service.drain()
    return job_ids
