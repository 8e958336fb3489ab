"""Per-backend circuit breakers on the simulated clock.

Classic three-state breaker (CLOSED → OPEN → HALF_OPEN → …), with two
repo-specific properties:

- **simulated time** — cooldowns are measured on the service's
  simulated clock, never the host clock, so breaker behaviour is part
  of the deterministic replay;
- **degradation, not refusal** — a tripped breaker does not fail
  requests.  The resilient executor walks the configured degradation
  ladder (``numpy`` → ``reference``, see
  :data:`repro.resilience.config.DEGRADE_ORDER`) and runs the job on
  the fastest backend whose breaker admits it; the ladder's last rung
  is always admitted.

State changes are counted (``resilience.breaker.*``) and exported as a
per-backend gauge so ``repro report`` can show which backends were
degraded during a run.
"""

from __future__ import annotations

from repro.obs.events import EVENTS
from repro.obs.metrics import METRICS
from repro.resilience.config import BreakerConfig

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: gauge encoding of the state machine
_STATE_GAUGE = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


class CircuitBreaker:
    """Failure counter + state machine for one backend."""

    def __init__(self, backend: str, config: BreakerConfig) -> None:
        self.backend = backend
        self.config = config
        self.state = CLOSED
        self.failures = 0
        self.trips = 0
        self.opened_at = 0.0

    def _set_state(self, state: str, now: float) -> None:
        self.state = state
        if METRICS.enabled:
            METRICS.set_gauge(
                f"resilience.breaker.{self.backend}.state", _STATE_GAUGE[state]
            )
        if EVENTS.enabled:
            EVENTS.emit(
                "breaker_transition", backend=self.backend, state=state,
                failures=self.failures, sim_t=now,
            )

    def allows(self, now: float) -> bool:
        """Whether an execution on this backend is admitted at ``now``.

        An OPEN breaker whose cooldown has elapsed transitions to
        HALF_OPEN and admits exactly one probe (further calls while the
        probe is outstanding stay refused until an outcome is
        recorded).
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now - self.opened_at >= self.config.cooldown_s:
                self._set_state(HALF_OPEN, now)
                if METRICS.enabled:
                    METRICS.inc("resilience.breaker.half_open_probes")
                return True
            return False
        # HALF_OPEN: one probe is already in flight this simulated
        # instant; the service executes synchronously, so a second
        # allows() call at the same state means the probe failed-open
        # again or another job is asking — refuse until resolution.
        return False

    def record_success(self, now: float) -> None:
        """A verified execution completed on this backend."""
        self.failures = 0
        if self.state != CLOSED:
            self._set_state(CLOSED, now)
            if METRICS.enabled:
                METRICS.inc("resilience.breaker.closes")

    def record_failure(self, now: float) -> None:
        """A kernel fault or corrupt result was attributed to this
        backend; trips the breaker at the configured threshold (or
        instantly from HALF_OPEN)."""
        self.failures += 1
        if self.state == HALF_OPEN or (
            self.state == CLOSED
            and self.failures >= self.config.failure_threshold
        ):
            self.opened_at = now
            self.trips += 1
            self._set_state(OPEN, now)
            if METRICS.enabled:
                METRICS.inc("resilience.breaker.trips")
        elif self.state == OPEN:
            self.opened_at = now
