"""Service-level fault tolerance: survive, detect, degrade, shed.

The resilience layer ties the fault machinery (:mod:`repro.faults`),
durable jobs (:mod:`repro.jobs`), the serving layer
(:mod:`repro.service`), and the kernel backends
(:data:`repro.kernels.BACKENDS`) into one story:

- :mod:`~repro.resilience.executor` — checkpointed execution with
  crash-resume, end-to-end verification, and breaker-aware backend
  degradation;
- :mod:`~repro.resilience.verifier` — structural invariants plus
  seeded spot re-execution on the host engine;
- :mod:`~repro.resilience.breaker` — per-backend circuit breakers on
  the simulated clock;
- :mod:`~repro.resilience.quarantine` — poison-job deny-list;
- :mod:`~repro.resilience.shedding` — brownout load shedding by
  priority class.

Everything is deterministic on the simulated clock and draws
randomness only through :mod:`repro.util.rng` (lint rule RES001).

``ResilientExecutor`` is exported lazily: its module imports
``repro.service.core``, which itself imports this package's config at
load time, so the eager import set here must stay service-free.
"""

from repro.resilience.breaker import CircuitBreaker
from repro.resilience.config import (
    DEGRADE_ORDER,
    BreakerConfig,
    BrownoutConfig,
    ResilienceConfig,
    VerifySpec,
)
from repro.resilience.quarantine import QuarantineRegistry, poison_key
from repro.resilience.shedding import SHED_ORDER, BrownoutController
from repro.resilience.verifier import sample_rows, verify_result

__all__ = [
    "BreakerConfig",
    "BrownoutConfig",
    "BrownoutController",
    "CircuitBreaker",
    "DEGRADE_ORDER",
    "QuarantineRegistry",
    "ResilienceConfig",
    "ResilientExecutor",
    "SHED_ORDER",
    "VerifySpec",
    "poison_key",
    "sample_rows",
    "verify_result",
]


def __getattr__(name: str) -> object:
    if name == "ResilientExecutor":
        from repro.resilience.executor import ResilientExecutor

        return ResilientExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
