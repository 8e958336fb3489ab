"""The structured event log: an append-only JSONL flight recorder.

Every run-level happening the repo wants to reason about *after* the
process exits — stage boundaries, checkpoint writes, resumes, fault
injections, retries, per-device phase completions — is emitted here as
one JSON object per line (the ``repro-events/1`` schema).  The event
log is the durable complement of the in-memory metrics snapshot: a
metrics snapshot says *how much*, the event log says *what happened,
in which order, and when* (on both clocks).

Schema (``repro-events/1``):

- line 1 is the **header**: ``{"event": "header", "schema":
  "repro-events/1", "run_id": ..., "label": ..., "provenance":
  {...}}`` — provenance carries whatever identifies the run (the
  ``repro-job/3`` config fingerprint for durable jobs, seeds, host
  info from :func:`host_info`, CLI configuration);
- every record carries ``seq`` (0-based, strictly increasing — a
  truncated log is detectable) and ``wall_t`` (host seconds since the
  log was opened; events from simulation code additionally carry
  ``sim_t``, the simulated clock, kept strictly separate per CLK001);
- records are compact JSON with sorted keys, so a log is diffable and
  byte-stable given identical inputs and timestamps.

Like :data:`repro.obs.metrics.METRICS`, the module-level :data:`EVENTS`
recorder starts *disabled* and every emit site in instrumented code
guards with ``if EVENTS.enabled:`` — the library costs one branch per
site until a CLI ``--export-events`` flag opens a log.  ``repro.obs``
is exempt from DET001/CLK001 by design: this module is a sanctioned
host-timestamp boundary, exactly like the bench harness.

The EVT001 lint rule enforces the flip side: instrumented packages
(``repro.jobs``, ``repro.faults``, ``repro.hetero``, …) must emit
events only through this module, never via hand-rolled ``json.dump``
/ JSONL writes.
"""

from __future__ import annotations

import json
import platform as _platform
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.util.errors import MetricError

#: event-log schema identifier; bump on any structural change
SCHEMA = "repro-events/1"


def host_info() -> dict:
    """The host triple stamped into provenance (and bench reports)."""
    return {
        "python": _platform.python_version(),
        "numpy": np.__version__,
        "machine": _platform.machine(),
    }


def _jsonable_default(value: object) -> object:
    """``json.dumps`` fallback: numpy scalars/arrays degrade cleanly."""
    item = getattr(value, "item", None)
    if callable(item) and isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return str(value)


class EventLog:
    """One append-only JSONL event stream.

    Disabled (and closed) by default; :meth:`open` writes the header
    and enables the log, :meth:`emit` appends one record, and
    :meth:`close` appends the terminal ``run_end`` record and disables
    the log again.  Emitting on a closed/disabled log is a no-op, so
    instrumented code never needs to know whether recording is on.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._fh = None
        self._seq = 0
        self._epoch = 0.0
        self._status = "ok"
        self.path: Path | None = None

    # -- lifecycle ---------------------------------------------------------
    def open(
        self,
        path: str | Path,
        *,
        run_id: str,
        label: str | None = None,
        provenance: dict | None = None,
    ) -> None:
        """Start a new log at ``path`` (truncating), write the header."""
        if self._fh is not None:
            raise MetricError(
                f"event log already open at {self.path}; close it first"
            )
        self.path = Path(path)
        self._fh = open(self.path, "w", encoding="utf-8", newline="\n")
        self._seq = 0
        self._epoch = time.perf_counter()
        self._status = "ok"
        self._write({
            "event": "header",
            "schema": SCHEMA,
            "run_id": run_id,
            "label": label if label is not None else run_id,
            "provenance": provenance or {},
        })
        self.enabled = True

    def emit(self, event: str, **fields: object) -> None:
        """Append one record; no-op when the log is disabled/closed."""
        if not self.enabled or self._fh is None:
            return
        reserved = {"seq", "wall_t", "event"} & set(fields)
        if reserved:
            raise MetricError(
                f"event field(s) {sorted(reserved)} are reserved for the "
                "log's own numbering/timestamps; rename them"
            )
        record = dict(fields)
        record["event"] = event
        self._write(record)

    def set_status(self, status: str) -> None:
        """Override the terminal status recorded by ``run_end``."""
        self._status = status

    def close(self) -> None:
        """Append ``run_end`` and release the file (idempotent)."""
        if self._fh is None:
            return
        self._write({"event": "run_end", "status": self._status})
        fh = self._fh
        self._fh = None
        self.enabled = False
        self.path = None
        fh.flush()
        fh.close()

    # -- internals ---------------------------------------------------------
    def _write(self, record: dict) -> None:
        record["seq"] = self._seq
        record["wall_t"] = round(time.perf_counter() - self._epoch, 9)
        self._fh.write(
            json.dumps(
                record,
                sort_keys=True,
                separators=(",", ":"),
                default=_jsonable_default,
            )
            + "\n"
        )
        self._seq += 1


#: the shared library-wide event log; closed until a CLI opens it
EVENTS = EventLog()


@contextmanager
def event_log(
    path: str | Path,
    *,
    run_id: str,
    label: str | None = None,
    provenance: dict | None = None,
    log: EventLog | None = None,
) -> Iterator[EventLog]:
    """Record one run into ``path``: header + ``run_begin`` on entry,
    ``run_end`` on exit (with the exception's class name as the status
    when the block raises — the exception still propagates)."""
    lg = EVENTS if log is None else log
    lg.open(path, run_id=run_id, label=label, provenance=provenance)
    lg.emit("run_begin", run_id=run_id)
    try:
        yield lg
    except BaseException as exc:
        lg.set_status(type(exc).__name__)
        raise
    finally:
        lg.close()


def read_events(path: str | Path) -> tuple[dict, list[dict]]:
    """Parse one event log into ``(header, records)``.

    Validates the schema tag and the strictly-increasing ``seq``
    numbering (a truncated or interleaved log fails loudly).
    """
    records: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    if not records or records[0].get("event") != "header":
        raise ValueError(f"{path}: not an event log (missing header record)")
    header = records[0]
    if header.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: unsupported event schema {header.get('schema')!r}; "
            f"expected {SCHEMA!r}"
        )
    for i, record in enumerate(records):
        if record.get("seq") != i:
            raise ValueError(
                f"{path}: seq gap at line {i + 1} (got {record.get('seq')!r}); "
                "log truncated or interleaved"
            )
    return header, records[1:]
