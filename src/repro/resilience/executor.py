"""The resilient executor: checkpointed, verifying, breaker-aware.

Drop-in replacement for :class:`repro.service.core.PipelineExecutor`
(same ``Executor`` protocol) that turns the service from
"execute-and-hope" into a supervised execution loop:

1. **Checkpointed execution.**  When the resilience config enables
   snapshots, each request runs through
   :class:`repro.jobs.JobRunner`, which checkpoints after every stage
   and every ``checkpoint_every`` Phase III work-units.  An injected
   ``executor_crash`` fault (a resumable :class:`FaultError`) is
   caught here and the job is *resumed from the snapshot it just
   wrote* — bit-identical to an uninterrupted run, because the runner
   restores device clocks, RNG state, and partial tuple streams.

2. **End-to-end verification.**  Every produced result is audited by
   :func:`repro.resilience.verifier.verify_result` before the service
   ever sees it, so silent corruption (``result_corrupt`` faults)
   cannot reach a client.

3. **Retry with a re-rolled fault seed.**  A failed verification is
   retried with the same fault *schedule* under a salted seed
   (deterministic — the salt is the attempt number), modelling "run it
   again on hopefully-healthier hardware".  Transient corruption
   clears; persistent corruption exhausts ``quarantine_after``
   attempts and raises :class:`CorruptResultError` for the service to
   quarantine.

4. **Circuit breaking with degradation.**  Failures are charged to the
   backend that produced them; a tripped breaker makes subsequent
   executions fall down the degradation ladder
   (``numpy`` → ``reference``) until the cooldown admits a
   half-open probe.  The ladder's last rung is always admitted.

The executor is clock-passive: the service binds its simulated clock
via :meth:`bind_clock`, so breaker cooldowns and event timestamps live
on the same timeline as everything else.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.obs.events import EVENTS
from repro.obs.metrics import METRICS
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.config import ResilienceConfig
from repro.resilience.verifier import verify_result
from repro.util.errors import CorruptResultError, FaultError, ServiceError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.core.result import SpmmResult
    from repro.service.core import ExecOutcome, JobRequest, ServiceConfig


def _fresh_stats() -> dict[str, int]:
    return {
        "checkpoints": 0,
        "resumes": 0,
        "crashes": 0,
        "corrupt_detected": 0,
        "corrupt_retries": 0,
        "verified": 0,
        "breaker_trips": 0,
        "degraded_dispatches": 0,
    }


class ResilientExecutor:
    """Supervised pipeline execution for :class:`JobService`."""

    def __init__(
        self,
        config: "ServiceConfig",
        *,
        workdir: "str | Path | None" = None,
    ) -> None:
        resilience = config.resilience
        if resilience is None:
            resilience = ResilienceConfig()
        self._config = config
        self._res: ResilienceConfig = resilience
        self._breakers: dict[str, CircuitBreaker] = {}
        self._now: Callable[[], float] = lambda: 0.0
        self._exec_idx = 0
        self._explicit_workdir = Path(workdir) if workdir is not None else None
        self._tmpdir: tempfile.TemporaryDirectory[str] | None = None
        #: running totals across every execution (the service folds
        #: these into run-table rows)
        self.stats: dict[str, int] = _fresh_stats()

    # -- wiring ------------------------------------------------------------
    def bind_clock(self, now_fn: Callable[[], float]) -> None:
        """Attach the service's simulated-clock reader (breaker
        cooldowns and events are stamped with it)."""
        self._now = now_fn

    @property
    def workdir(self) -> Path:
        """Checkpoint root (a TemporaryDirectory unless injected)."""
        if self._explicit_workdir is not None:
            return self._explicit_workdir
        if self._tmpdir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-resil-")
        return Path(self._tmpdir.name)

    # -- breaker ladder ----------------------------------------------------
    def breaker(self, backend: str) -> CircuitBreaker | None:
        if self._res.breaker is None:
            return None
        br = self._breakers.get(backend)
        if br is None:
            br = CircuitBreaker(backend, self._res.breaker)
            self._breakers[backend] = br
        return br

    def _choose_backend(self, now: float) -> str:
        """Fastest rung of the degradation ladder whose breaker admits
        an execution now; the last rung is always admitted."""
        chain = self._res.degrade_chain(self._config.backend)
        if self._res.breaker is None:
            return chain[0]
        for i, name in enumerate(chain):
            if i == len(chain) - 1:
                break
            if self.breaker(name).allows(now):  # type: ignore[union-attr]
                if i > 0:
                    self.stats["degraded_dispatches"] += 1
                    if METRICS.enabled:
                        METRICS.inc("resilience.breaker.degraded_dispatches")
                return name
        if len(chain) > 1:
            self.stats["degraded_dispatches"] += 1
            if METRICS.enabled:
                METRICS.inc("resilience.breaker.degraded_dispatches")
        return chain[-1]

    # -- one attempt -------------------------------------------------------
    def _run_attempt(
        self, request: "JobRequest", backend: str, attempt: int
    ) -> tuple["SpmmResult", int, int, int]:
        """Run the pipeline once (resuming across injected executor
        crashes); returns (result, checkpoints, resumes, crashes)."""
        from repro.core.hhcpu import HHCPU
        from repro.jobs.runner import JobRunner

        faults = request.faults
        if faults is not None and attempt > 0:
            # re-roll the probabilistic faults; deterministic in the
            # attempt number, so replays retry identically
            faults = faults.with_seed(faults.seed + 1_000_003 * attempt)

        if self._res.checkpoint_every is None:
            pipeline = HHCPU(
                kernel=self._config.kernel,
                backend=backend,
                cpu_rows=self._config.cpu_rows,
                gpu_rows=self._config.gpu_rows,
                faults=faults,
            )
            return pipeline.multiply(request.a, request.b), 0, 0, 0

        ckpt_dir = self.workdir / f"x{self._exec_idx:05d}a{attempt}"
        checkpoints = resumes = crashes = 0
        resume = False
        while True:
            runner = JobRunner(
                request.a,
                request.b,
                checkpoint_dir=ckpt_dir,
                kernel=self._config.kernel,
                backend=backend,
                cpu_rows=self._config.cpu_rows,
                gpu_rows=self._config.gpu_rows,
                faults=faults,
                checkpoint_every=self._res.checkpoint_every,
                matrix_name=request.workload,
            )
            try:
                result = runner.run(resume=resume)
            except FaultError as exc:
                if exc.context.get("reason") != "executor_crash":
                    raise
                checkpoints += runner.checkpoints_written
                crashes += 1
                resumes += 1
                resume = True
                self.stats["crashes"] += 1
                if METRICS.enabled:
                    METRICS.inc("resilience.executor.crashes")
                if EVENTS.enabled:
                    EVENTS.emit(
                        "executor_crash_resume",
                        workload=request.workload,
                        at_checkpoint=exc.context.get("at_checkpoint"),
                        sim_t=self._now(),
                    )
                continue
            checkpoints += runner.checkpoints_written
            return result, checkpoints, resumes, crashes

    # -- the Executor protocol --------------------------------------------
    def execute(self, request: "JobRequest") -> "ExecOutcome":
        from repro.service.core import ExecOutcome

        if request.a is None or request.b is None:
            raise ServiceError(
                "request carries no operands; the resilient executor needs "
                "both A and B",
                workload=request.workload,
            )
        now = self._now()
        self._exec_idx += 1
        total_sim = 0.0
        checkpoints = resumes = crashes = 0
        attempt = 0
        while True:
            backend = self._choose_backend(now)
            br = self.breaker(backend)
            trips_before = br.trips if br is not None else 0
            try:
                result, ck, rs, cr = self._run_attempt(request, backend, attempt)
            except FaultError:
                # an unsurvivable kernel/platform fault under this
                # backend: charge the breaker, fail the request
                if br is not None:
                    br.record_failure(now)
                    self.stats["breaker_trips"] += br.trips - trips_before
                raise
            checkpoints += ck
            resumes += rs
            crashes += cr
            total_sim += float(result.total_time)
            try:
                if self._res.verify is not None:
                    verify_result(
                        request.a, request.b, result.matrix,
                        self._res.verify, backend=backend,
                    )
                    self.stats["verified"] += 1
            except CorruptResultError as exc:
                attempt += 1
                self.stats["corrupt_detected"] += 1
                if br is not None:
                    br.record_failure(now)
                    self.stats["breaker_trips"] += br.trips - trips_before
                if attempt >= self._res.quarantine_after:
                    self.stats["checkpoints"] += checkpoints
                    self.stats["resumes"] += resumes
                    raise CorruptResultError(
                        f"result failed verification on every one of "
                        f"{attempt} attempt(s): {exc}",
                        attempts=attempt,
                        backend=backend,
                        check=exc.context.get("check"),
                        checkpoints=checkpoints,
                        resumes=resumes,
                    ) from exc
                self.stats["corrupt_retries"] += 1
                if METRICS.enabled:
                    METRICS.inc("resilience.corrupt.retries")
                continue
            if br is not None:
                br.record_success(now)
            self.stats["checkpoints"] += checkpoints
            self.stats["resumes"] += resumes
            return ExecOutcome(
                sim_duration_s=total_sim,
                result=result,
                checkpoints=checkpoints,
                resumes=resumes,
                crashes=crashes,
                corrupt_retries=attempt,
                backend=backend,
                degraded=backend != self._config.backend,
            )
