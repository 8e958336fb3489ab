"""Fault specifications: what goes wrong, where, and when.

A :class:`FaultSpec` is a declarative, JSON-serialisable schedule of
injectable faults plus the retry policy the platform fights back with.
The JSON document shape (see README "Fault injection & degradation")::

    {
      "seed": 7,
      "retry": {"max_attempts": 4, "base_delay_s": 1e-4, "multiplier": 2.0,
                "max_delay_s": 1e-2, "unit_timeout_s": null},
      "faults": [
        {"kind": "device_crash",  "device": "gpu", "at_s": 0.5},
        {"kind": "straggler",     "device": "cpu", "from_s": 0.1, "factor": 3.0},
        {"kind": "dequeue_stall", "device": "cpu", "at_s": 0.2, "stall_s": 0.05},
        {"kind": "transfer_error", "probability": 0.2, "max_errors": 10},
        {"kind": "unit_error", "device": "gpu", "probability": 0.1, "max_errors": 5},
        {"kind": "result_corrupt", "device": "gpu", "probability": 0.3,
         "mode": "bitflip", "max_errors": 2, "backend": "numpy"},
        {"kind": "executor_crash", "at_checkpoint": 1}
      ]
    }

Every field is validated on construction so a bad chaos config fails at
load time, not three phases into a simulation.  The probabilistic kinds
(``transfer_error``, ``unit_error``) draw from one seeded generator
owned by the :class:`~repro.faults.injector.FaultInjector`, so a spec +
seed pins the entire fault schedule bit-for-bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.faults.policy import RetryPolicy
from repro.util.errors import FaultError

#: device kinds faults may target
DEVICE_KINDS = ("cpu", "gpu")

#: injectable fault kinds (see the README table)
FAULT_KINDS = (
    "device_crash", "straggler", "dequeue_stall", "transfer_error", "unit_error",
    "result_corrupt", "executor_crash",
)

#: ways a result_corrupt fault can mangle a partial product
CORRUPT_MODES = ("bitflip", "drop_row")


@dataclass(frozen=True)
class DeviceCrash:
    """The device dies at ``at_s`` simulated seconds; in-flight work is
    lost and the survivor drains the dead device's end of the queue."""

    device: str
    at_s: float
    kind: str = field(default="device_crash", init=False)

    def __post_init__(self) -> None:
        _check_device(self.device)
        if self.at_s < 0:
            raise FaultError(f"crash at_s must be >= 0, got {self.at_s}")

    def as_dict(self) -> dict:
        return {"kind": self.kind, "device": self.device, "at_s": self.at_s}


@dataclass(frozen=True)
class Straggler:
    """From ``from_s`` onwards the device computes ``factor`` x slower
    (throughput degradation; transfers are unaffected)."""

    device: str
    factor: float
    from_s: float = 0.0
    kind: str = field(default="straggler", init=False)

    def __post_init__(self) -> None:
        _check_device(self.device)
        if self.factor < 1.0:
            raise FaultError(f"straggler factor must be >= 1, got {self.factor}")
        if self.from_s < 0:
            raise FaultError(f"straggler from_s must be >= 0, got {self.from_s}")

    def as_dict(self) -> dict:
        return {
            "kind": self.kind, "device": self.device,
            "factor": self.factor, "from_s": self.from_s,
        }


@dataclass(frozen=True)
class DequeueStall:
    """The device's first dequeue at or after ``at_s`` loses ``stall_s``
    simulated seconds (a one-shot synchronisation hiccup)."""

    device: str
    at_s: float
    stall_s: float
    kind: str = field(default="dequeue_stall", init=False)

    def __post_init__(self) -> None:
        _check_device(self.device)
        if self.at_s < 0:
            raise FaultError(f"stall at_s must be >= 0, got {self.at_s}")
        if self.stall_s <= 0:
            raise FaultError(f"stall_s must be positive, got {self.stall_s}")

    def as_dict(self) -> dict:
        return {
            "kind": self.kind, "device": self.device,
            "at_s": self.at_s, "stall_s": self.stall_s,
        }


@dataclass(frozen=True)
class TransferError:
    """Each PCIe transfer attempt fails with ``probability``; a failed
    attempt wastes its wire time and retries after backoff.  At most
    ``max_errors`` errors are injected in total (0 = unbounded)."""

    probability: float
    max_errors: int = 0
    kind: str = field(default="transfer_error", init=False)

    def __post_init__(self) -> None:
        if not (0.0 <= self.probability < 1.0):
            raise FaultError(
                f"transfer-error probability must be in [0, 1), got "
                f"{self.probability}"
            )
        if self.max_errors < 0:
            raise FaultError(f"max_errors must be >= 0, got {self.max_errors}")

    def as_dict(self) -> dict:
        return {
            "kind": self.kind, "probability": self.probability,
            "max_errors": self.max_errors,
        }


@dataclass(frozen=True)
class UnitError:
    """Each Phase III work-unit attempt on ``device`` fails transiently
    with ``probability``; the attempt's compute is lost and the unit is
    requeued.  At most ``max_errors`` errors in total (0 = unbounded)."""

    device: str
    probability: float
    max_errors: int = 0
    kind: str = field(default="unit_error", init=False)

    def __post_init__(self) -> None:
        _check_device(self.device)
        if not (0.0 <= self.probability < 1.0):
            raise FaultError(
                f"unit-error probability must be in [0, 1), got "
                f"{self.probability}"
            )
        if self.max_errors < 0:
            raise FaultError(f"max_errors must be >= 0, got {self.max_errors}")

    def as_dict(self) -> dict:
        return {
            "kind": self.kind, "device": self.device,
            "probability": self.probability, "max_errors": self.max_errors,
        }


@dataclass(frozen=True)
class ResultCorrupt:
    """Each partial product produced on ``device`` is *silently* mangled
    with ``probability`` — the tuples change but timing, stats, and
    events do not, modelling SDC (silent data corruption) in a kernel or
    on the wire.  ``mode`` picks the mangling: ``"bitflip"`` XORs bit
    ``bit`` of one value's IEEE-754 image, ``"drop_row"`` deletes every
    tuple of one populated row.  At most ``max_errors`` corruptions in
    total (0 = unbounded).  When ``backend`` is set the fault only fires
    on partials computed under that *configured* backend, so a "the
    engine produces wrong answers" scenario is expressible and the
    breaker's degradation to the ``reference`` oracle clears it."""

    device: str
    probability: float
    mode: str = "bitflip"
    bit: int = 62
    max_errors: int = 0
    backend: str | None = None
    kind: str = field(default="result_corrupt", init=False)

    def __post_init__(self) -> None:
        _check_device(self.device)
        if not (0.0 <= self.probability <= 1.0):
            raise FaultError(
                f"result-corrupt probability must be in [0, 1], got "
                f"{self.probability}"
            )
        if self.mode not in CORRUPT_MODES:
            raise FaultError(
                f"result-corrupt mode must be one of {CORRUPT_MODES}, got "
                f"{self.mode!r}"
            )
        if not (0 <= self.bit <= 63):
            raise FaultError(f"result-corrupt bit must be in [0, 63], got {self.bit}")
        if self.max_errors < 0:
            raise FaultError(f"max_errors must be >= 0, got {self.max_errors}")
        if self.backend is not None and (
            not isinstance(self.backend, str) or not self.backend
        ):
            raise FaultError(
                f"result-corrupt backend must be a non-empty string or null, "
                f"got {self.backend!r}"
            )

    def as_dict(self) -> dict:
        return {
            "kind": self.kind, "device": self.device,
            "probability": self.probability, "mode": self.mode,
            "bit": self.bit, "max_errors": self.max_errors,
            "backend": self.backend,
        }


@dataclass(frozen=True)
class ExecutorCrash:
    """The process driving the job dies right after checkpoint sequence
    ``at_checkpoint`` is durably written (a simulated executor/worker
    crash).  Surfaces as a resumable :class:`FaultError`; a checkpointed
    executor resumes from that very snapshot, an uncheckpointed run
    fails.  Because snapshot sequence numbers continue across resume,
    each ``at_checkpoint`` fires exactly once per job."""

    at_checkpoint: int
    kind: str = field(default="executor_crash", init=False)

    def __post_init__(self) -> None:
        if self.at_checkpoint < 0:
            raise FaultError(
                f"executor-crash at_checkpoint must be >= 0, got "
                f"{self.at_checkpoint}"
            )

    def as_dict(self) -> dict:
        return {"kind": self.kind, "at_checkpoint": self.at_checkpoint}


Fault = (
    DeviceCrash | Straggler | DequeueStall | TransferError | UnitError
    | ResultCorrupt | ExecutorCrash
)

_FAULT_CLASSES = {
    "device_crash": DeviceCrash,
    "straggler": Straggler,
    "dequeue_stall": DequeueStall,
    "transfer_error": TransferError,
    "unit_error": UnitError,
    "result_corrupt": ResultCorrupt,
    "executor_crash": ExecutorCrash,
}


def _check_device(device: str) -> None:
    if device not in DEVICE_KINDS:
        raise FaultError(
            f"fault device must be one of {DEVICE_KINDS}, got {device!r}"
        )


def fault_from_dict(data: dict) -> Fault:
    """Build one fault entry from its JSON dict."""
    if not isinstance(data, dict):
        raise FaultError(f"fault entry must be an object, got {type(data).__name__}")
    kind = data.get("kind")
    cls = _FAULT_CLASSES.get(kind)
    if cls is None:
        raise FaultError(
            f"unknown fault kind {kind!r}; choose from {FAULT_KINDS}"
        )
    fields = {k: v for k, v in data.items() if k != "kind"}
    try:
        return cls(**fields)
    except TypeError as exc:
        raise FaultError(f"bad {kind} fault entry: {exc}") from None


@dataclass(frozen=True)
class FaultSpec:
    """A complete, validated fault schedule."""

    faults: tuple[Fault, ...] = ()
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise FaultError(f"seed must be non-negative, got {self.seed}")
        crashes: set[str] = set()
        exec_crashes: set[int] = set()
        for f in self.faults:
            if isinstance(f, DeviceCrash):
                if f.device in crashes:
                    raise FaultError(
                        f"duplicate device_crash for {f.device!r}; a device "
                        "dies at most once"
                    )
                crashes.add(f.device)
            elif isinstance(f, ExecutorCrash):
                if f.at_checkpoint in exec_crashes:
                    raise FaultError(
                        f"duplicate executor_crash at checkpoint "
                        f"{f.at_checkpoint}; each snapshot sequence number "
                        "crashes at most once"
                    )
                exec_crashes.add(f.at_checkpoint)

    # -- queries -----------------------------------------------------------
    def of_kind(self, kind: str) -> tuple[Fault, ...]:
        """Every fault entry of the given kind, in spec order."""
        return tuple(f for f in self.faults if f.kind == kind)

    def crash_time(self, device: str) -> float | None:
        """When ``device`` dies, or None if it never crashes."""
        for f in self.of_kind("device_crash"):
            if f.device == device:
                return f.at_s
        return None

    def crash_checkpoints(self) -> tuple[int, ...]:
        """Snapshot sequence numbers after which the executor dies,
        sorted ascending (empty when no executor_crash faults)."""
        return tuple(sorted(
            f.at_checkpoint for f in self.of_kind("executor_crash")
        ))

    def with_seed(self, seed: int) -> "FaultSpec":
        """The same schedule under a different probabilistic seed.

        Used by resilient executors to *re-roll* the transient faults on
        a verification-failed retry: the deterministic entries
        (crashes, stragglers, stalls, executor crashes) are unchanged,
        only the seeded draws shift."""
        return FaultSpec(faults=self.faults, retry=self.retry, seed=seed)

    # -- (de)serialisation -------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "retry": self.retry.as_dict(),
            "faults": [f.as_dict() for f in self.faults],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        if not isinstance(data, dict):
            raise FaultError(
                f"fault spec must be an object, got {type(data).__name__}"
            )
        unknown = set(data) - {"seed", "retry", "faults"}
        if unknown:
            raise FaultError(f"unknown fault-spec fields: {sorted(unknown)}")
        faults = data.get("faults", [])
        if not isinstance(faults, list):
            raise FaultError("fault-spec 'faults' must be a list")
        retry_data = data.get("retry")
        retry = (
            RetryPolicy.from_dict(retry_data)
            if retry_data is not None
            else RetryPolicy()
        )
        return cls(
            faults=tuple(fault_from_dict(f) for f in faults),
            retry=retry,
            seed=int(data.get("seed", 0)),
        )


def load_fault_spec(path: str | Path) -> FaultSpec:
    """Load and validate a fault-spec JSON document from disk."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise FaultError(f"fault spec not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise FaultError(f"fault spec {path} is not valid JSON: {exc}") from None
    return FaultSpec.from_dict(data)
