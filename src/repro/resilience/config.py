"""Configuration value objects for the resilience layer.

Everything here is a small frozen dataclass with a validated
constructor and a plain-dict round-trip: the objects travel through
``ServiceConfig`` (and therefore mix files, provenance headers, and
fingerprints), so they must serialise deterministically and reject
unknown fields at load time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.errors import InvalidInputError

#: breaker degradation ladder, fastest first; a tripped breaker falls
#: to the next entry, and the last entry is the bedrock that is always
#: allowed to run (the scalar reference cannot be "broken away from")
DEGRADE_ORDER = ("numpy", "reference")


def _require(cond: bool, message: str, **context: object) -> None:
    if not cond:
        raise InvalidInputError(message, **context)


def _check_unknown(cls: type, data: dict[str, object], label: str) -> None:
    known = set(cls.__dataclass_fields__)  # type: ignore[attr-defined]
    unknown = set(data) - known
    _require(
        not unknown,
        f"unknown {label} fields: {sorted(unknown)}",
        field=label, value=sorted(unknown),
    )


@dataclass(frozen=True)
class VerifySpec:
    """How the end-to-end verifier samples a delivered result.

    The verifier always checks the structural invariants; ``blocks``
    row blocks of ``block_rows`` rows are then re-executed against the
    ``reference`` backend.  Block starts are drawn from a generator
    seeded with ``seed`` (independent of the workload seed), so the
    sampled rows are pinned per (spec, result-shape) and replays verify
    identical rows.  ``full=True`` recomputes the whole product instead
    of sampling (small matrices / CI gates).
    """

    block_rows: int = 64
    blocks: int = 4
    seed: int = 20150525
    full: bool = False

    def __post_init__(self) -> None:
        _require(self.block_rows >= 1,
                 f"block_rows must be >= 1, got {self.block_rows}",
                 field="block_rows", value=self.block_rows)
        _require(self.blocks >= 1,
                 f"blocks must be >= 1, got {self.blocks}",
                 field="blocks", value=self.blocks)
        _require(self.seed >= 0,
                 f"seed must be >= 0, got {self.seed}",
                 field="seed", value=self.seed)

    def as_dict(self) -> dict[str, object]:
        return {
            "block_rows": int(self.block_rows),
            "blocks": int(self.blocks),
            "seed": int(self.seed),
            "full": bool(self.full),
        }

    @staticmethod
    def from_dict(data: dict[str, object]) -> "VerifySpec":
        _check_unknown(VerifySpec, data, "verify-spec")
        return VerifySpec(**data)  # type: ignore[arg-type]


@dataclass(frozen=True)
class BreakerConfig:
    """Per-backend circuit-breaker tuning.

    ``failure_threshold`` consecutive failures trip the breaker OPEN;
    after ``cooldown_s`` simulated seconds it admits one HALF_OPEN
    probe, which either closes it (success) or re-opens it for another
    cooldown (failure).
    """

    failure_threshold: int = 3
    cooldown_s: float = 5.0

    def __post_init__(self) -> None:
        _require(self.failure_threshold >= 1,
                 f"failure_threshold must be >= 1, got {self.failure_threshold}",
                 field="failure_threshold", value=self.failure_threshold)
        _require(self.cooldown_s > 0,
                 f"cooldown_s must be positive, got {self.cooldown_s}",
                 field="cooldown_s", value=self.cooldown_s)

    def as_dict(self) -> dict[str, object]:
        return {
            "failure_threshold": int(self.failure_threshold),
            "cooldown_s": float(self.cooldown_s),
        }

    @staticmethod
    def from_dict(data: dict[str, object]) -> "BreakerConfig":
        _check_unknown(BreakerConfig, data, "breaker-config")
        return BreakerConfig(**data)  # type: ignore[arg-type]


@dataclass(frozen=True)
class BrownoutConfig:
    """Brownout load-shedding watermarks (all on symbolic quantities).

    Shedding engages when in-flight memory utilisation reaches
    ``util_high`` (fraction of the admission budget) **or** the
    deadline-miss rate over the last ``window`` completions reaches
    ``miss_rate_high``; it escalates one priority class further when
    pressure reaches ``escalate`` times a high watermark, and releases
    one level whenever both signals are back under the low watermarks.
    A completion "misses" when its queue+service latency exceeds
    ``target_latency_s`` simulated seconds.
    """

    util_high: float = 0.85
    util_low: float = 0.60
    miss_rate_high: float = 0.5
    miss_rate_low: float = 0.1
    escalate: float = 1.5
    window: int = 16
    target_latency_s: float = 60.0

    def __post_init__(self) -> None:
        _require(0.0 < self.util_high <= 1.0,
                 f"util_high must be in (0, 1], got {self.util_high}",
                 field="util_high", value=self.util_high)
        _require(0.0 <= self.util_low < self.util_high,
                 "util_low must be in [0, util_high)",
                 field="util_low", value=self.util_low)
        _require(0.0 < self.miss_rate_high <= 1.0,
                 f"miss_rate_high must be in (0, 1], got {self.miss_rate_high}",
                 field="miss_rate_high", value=self.miss_rate_high)
        _require(0.0 <= self.miss_rate_low < self.miss_rate_high,
                 "miss_rate_low must be in [0, miss_rate_high)",
                 field="miss_rate_low", value=self.miss_rate_low)
        _require(self.escalate > 1.0,
                 f"escalate must be > 1, got {self.escalate}",
                 field="escalate", value=self.escalate)
        _require(self.window >= 1,
                 f"window must be >= 1, got {self.window}",
                 field="window", value=self.window)
        _require(self.target_latency_s > 0,
                 f"target_latency_s must be positive, got {self.target_latency_s}",
                 field="target_latency_s", value=self.target_latency_s)

    def as_dict(self) -> dict[str, object]:
        return {
            "util_high": float(self.util_high),
            "util_low": float(self.util_low),
            "miss_rate_high": float(self.miss_rate_high),
            "miss_rate_low": float(self.miss_rate_low),
            "escalate": float(self.escalate),
            "window": int(self.window),
            "target_latency_s": float(self.target_latency_s),
        }

    @staticmethod
    def from_dict(data: dict[str, object]) -> "BrownoutConfig":
        _check_unknown(BrownoutConfig, data, "brownout-config")
        return BrownoutConfig(**data)  # type: ignore[arg-type]


@dataclass(frozen=True)
class ResilienceConfig:
    """The whole resilience layer's switchboard.

    Attaching one of these to a ``ServiceConfig`` swaps the plain
    ``PipelineExecutor`` for the checkpointed, verifying, breaker-aware
    :class:`repro.resilience.executor.ResilientExecutor` and arms the
    service-side quarantine and brownout controls.  Sub-features are
    individually optional: ``verify=None`` disables result
    verification (and with it quarantine), ``breaker=None`` disables
    circuit breaking, ``brownout=None`` disables shedding,
    ``checkpoint_every=None`` disables mid-job snapshots (executor
    crashes then fail the request instead of resuming).
    """

    checkpoint_every: int | None = 25
    verify: VerifySpec | None = field(default_factory=VerifySpec)
    #: verification-failed attempts per job before it is quarantined
    quarantine_after: int = 2
    breaker: BreakerConfig | None = field(default_factory=BreakerConfig)
    brownout: BrownoutConfig | None = None

    def __post_init__(self) -> None:
        _require(self.checkpoint_every is None or self.checkpoint_every >= 1,
                 "checkpoint_every must be >= 1 or null",
                 field="checkpoint_every", value=self.checkpoint_every)
        _require(self.quarantine_after >= 1,
                 f"quarantine_after must be >= 1, got {self.quarantine_after}",
                 field="quarantine_after", value=self.quarantine_after)

    def as_dict(self) -> dict[str, object]:
        return {
            "checkpoint_every": self.checkpoint_every,
            "verify": self.verify.as_dict() if self.verify else None,
            "quarantine_after": int(self.quarantine_after),
            "breaker": self.breaker.as_dict() if self.breaker else None,
            "brownout": self.brownout.as_dict() if self.brownout else None,
        }

    @staticmethod
    def from_dict(data: dict[str, object]) -> "ResilienceConfig":
        _check_unknown(ResilienceConfig, data, "resilience-config")
        kwargs: dict[str, object] = dict(data)
        verify = kwargs.get("verify")
        if isinstance(verify, dict):
            kwargs["verify"] = VerifySpec.from_dict(verify)
        breaker = kwargs.get("breaker")
        if isinstance(breaker, dict):
            kwargs["breaker"] = BreakerConfig.from_dict(breaker)
        brownout = kwargs.get("brownout")
        if isinstance(brownout, dict):
            kwargs["brownout"] = BrownoutConfig.from_dict(brownout)
        return ResilienceConfig(**kwargs)  # type: ignore[arg-type]

    def degrade_chain(self, backend: str) -> tuple[str, ...]:
        """The backend ladder starting at ``backend``.

        A name outside :data:`DEGRADE_ORDER` degrades straight down
        the ladder behind its first rung.
        """
        if backend in DEGRADE_ORDER:
            i = DEGRADE_ORDER.index(backend)
            return DEGRADE_ORDER[i:]
        return (backend,) + DEGRADE_ORDER[1:]
