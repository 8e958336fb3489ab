"""Run-table aggregation: artifacts in, ``run_table.csv`` out.

Turns a directory of run artifacts — ``repro-events/1`` JSONL event
logs, ``repro-bench/1`` reports, ``repro-metrics/1`` snapshots — into
one flat table (the ``repro-runtable/3`` schema): **one row per (run,
repetition)** with throughput, mean/p95 latency on both clocks (host
wall and simulated, kept strictly separate per CLK001), and
failure/retry/checkpoint counts.  This is the artifact the ROADMAP's
load harness consumes, and the shape mubench-style replication tables
use: documented columns, deterministic ordering, byte-stable output.

Columns (also exported as :data:`COLUMNS`; empty cell = not available
from that artifact kind):

======================  ================================================
column                  meaning
======================  ================================================
run_id                  unique id of the run the row belongs to
source                  artifact kind the row came from
                        (events|bench|metrics|service)
config                  configuration label; ``--compare`` groups rows by it
backend                 kernel backend the row ran under (numpy /
                        reference); empty = unknown (older
                        artifacts default to numpy where the source
                        guarantees it)
repetition              0-based repetition index within the run
samples                 latency samples behind the percentile columns
work                    work items: A-rows completed (events/metrics runs),
                        result nnz (bench cases), requests served
                        (service runs)
wall_total_s            host wall-clock total of the repetition
wall_mean_s             mean of the host wall latency samples
wall_p50_s              exact p50 of the host wall latency samples
wall_p95_s              exact p95 of the host wall latency samples
sim_total_s             simulated makespan of the repetition
sim_mean_s              mean of the simulated per-unit latency samples
sim_p50_s               exact p50 of the simulated per-unit latency samples
sim_p95_s               exact p95 of the simulated per-unit latency samples
throughput_wall_per_s   work / wall_total_s
throughput_sim_per_s    work / sim_total_s
submitted               requests submitted to the job service
rejected                requests the service's admission control rejected
cancelled               requests cancelled while still queued
quarantined             requests isolated by the poison-job quarantine
shed                    requests refused by brownout load shedding
failures                fault events (crashes, stalls, transfer/unit
                        errors), or failed requests for service runs
retries                 work-unit attempts retried after a fault, or
                        verification-failed re-executions (service runs)
requeues                work-units curtailed + given back (crash/deadline)
checkpoints             checkpoints written during the repetition
resumes                 resumes from a checkpoint
breaker_trips           circuit-breaker trips during the repetition
status                  ok | degraded | exhausted | <exception class> |
                        incomplete
======================  ================================================

Service rows (``source="service"``, from :mod:`repro.service.loadgen`
runs or their ``load_rep_complete`` flight-recorder events) fill only
the simulated-clock columns: a serving experiment runs entirely on the
simulated clock, and keeping host-time stamps out of the rows is what
makes two identical-seed load runs byte-identical.

The CSV starts with a ``# repro-runtable/3`` comment line, then the
header row, then rows sorted by (run_id, repetition); floats are
formatted with ``%.9g``.  Re-aggregating the same artifacts yields a
byte-identical file.

The **comparator** (:func:`compare_tables`) is repetition-based: it
groups rows by ``config`` label and reports the median delta of one
metric column with a bootstrap confidence interval and a fixed-seed
permutation test — all randomness flows through
:func:`repro.util.rng.resolve_rng`, so verdicts are reproducible
bit-for-bit.  Deterministic metrics get an exact fast path: when both
groups have zero within-group spread (identical-seed simulated runs
have byte-identical ``sim_total_s``, the default metric), resampling
has no resolving power, so the verdict is exact — a zero delta is a
real tie (p = 1.0, no significant difference) and any nonzero delta is
a real configuration effect.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from repro.obs.events import SCHEMA as EVENTS_SCHEMA
from repro.obs.events import read_events
from repro.obs.metrics import exact_percentile
from repro.util.rng import DEFAULT_SEED, resolve_rng

#: run-table schema identifier; bump on any column change
SCHEMA = "repro-runtable/3"

#: ordered run-table columns (name, description) — the docs mirror this
COLUMNS: tuple[tuple[str, str], ...] = (
    ("run_id", "unique id of the run the row belongs to"),
    ("source", "artifact kind the row came from (events|bench|metrics|service)"),
    ("config", "configuration label; --compare groups rows by it"),
    ("backend", "kernel backend the row ran under (empty = unknown)"),
    ("repetition", "0-based repetition index within the run"),
    ("samples", "latency samples behind the percentile columns"),
    ("work", "work items (A-rows for runs, result nnz for bench cases, "
             "requests served for service runs)"),
    ("wall_total_s", "host wall-clock total of the repetition"),
    ("wall_mean_s", "mean of the host wall latency samples"),
    ("wall_p50_s", "exact p50 of the host wall latency samples"),
    ("wall_p95_s", "exact p95 of the host wall latency samples"),
    ("sim_total_s", "simulated makespan of the repetition"),
    ("sim_mean_s", "mean of the simulated per-unit latency samples"),
    ("sim_p50_s", "exact p50 of the simulated per-unit latency samples"),
    ("sim_p95_s", "exact p95 of the simulated per-unit latency samples"),
    ("throughput_wall_per_s", "work / wall_total_s"),
    ("throughput_sim_per_s", "work / sim_total_s"),
    ("submitted", "requests submitted to the job service"),
    ("rejected", "requests rejected by service admission control"),
    ("cancelled", "requests cancelled while still queued"),
    ("quarantined", "requests isolated by the poison-job quarantine"),
    ("shed", "requests refused by brownout load shedding"),
    ("failures", "fault events (or failed requests for service runs)"),
    ("retries", "work-unit attempts retried after a fault (or "
                "verification-failed re-executions for service runs)"),
    ("requeues", "work-units curtailed + given back (crash/deadline)"),
    ("checkpoints", "checkpoints written during the repetition"),
    ("resumes", "resumes from a checkpoint"),
    ("breaker_trips", "circuit-breaker trips during the repetition"),
    ("status", "ok | degraded | exhausted | <exception class> | incomplete"),
)

#: columns --compare / --metric accept (numeric, latency or throughput)
COMPARABLE_METRICS = (
    "wall_total_s", "wall_mean_s", "wall_p50_s", "wall_p95_s",
    "sim_total_s", "sim_mean_s", "sim_p50_s", "sim_p95_s",
    "throughput_wall_per_s", "throughput_sim_per_s",
)


def _mean(samples: list[float]) -> float | None:
    return sum(samples) / len(samples) if samples else None


def _p50(samples: list[float]) -> float | None:
    return exact_percentile(sorted(samples), 50.0) if samples else None


def _p95(samples: list[float]) -> float | None:
    return exact_percentile(sorted(samples), 95.0) if samples else None


def _throughput(work: float | None, total_s: float | None) -> float | None:
    if work is None or total_s is None or total_s <= 0:
        return None
    return work / total_s


def _row(**fields: object) -> dict:
    row = {name: None for name, _ in COLUMNS}
    row.update(fields)
    return row


# -- event-log rows ---------------------------------------------------------

def rows_from_events(path: str | Path) -> list[dict]:
    """Rows from one ``repro-events/1`` log.

    A log with ``load_rep_complete`` events (a service load run)
    yields one ``source="service"`` row per repetition, replayed
    verbatim from the event payloads; a log with per-repeat ``repeat``
    events (a bench run) yields one row per (case, repetition); any
    other log (a job/profile run) yields a single repetition-0 row
    summarising the whole run.
    """
    path = Path(path)
    header, records = read_events(path)
    reps = [r for r in records if r.get("event") == "load_rep_complete"]
    if reps:
        return _service_event_rows(header, reps)
    repeats = [r for r in records if r.get("event") == "repeat"]
    if repeats:
        return _bench_event_rows(header, records, repeats)
    return [_run_event_rows(path, header, records)]


def _service_event_rows(header: dict, reps: list[dict]) -> list[dict]:
    """Service rows re-derived from ``load_rep_complete`` events.

    The load generator stamps the *exact* row values into each event
    (floats round-trip bit-exactly through JSON), so the table built
    from the event log is byte-identical to the one the ``repro load``
    CLI wrote directly.
    """
    # keep in sync with repro.service.loadgen._EVENT_ROW_FIELDS
    fields = (
        "repetition", "samples", "work", "sim_total_s", "sim_mean_s",
        "sim_p50_s", "sim_p95_s", "throughput_sim_per_s", "submitted",
        "rejected", "cancelled", "quarantined", "shed", "failures",
        "retries", "checkpoints", "resumes", "breaker_trips", "status",
    )
    provenance = header.get("provenance") or {}
    backend = ((provenance.get("spec") or {}).get("service") or {}).get("backend")
    rows = []
    for r in reps:
        row = _row(
            run_id=header["run_id"],
            source="service",
            config=header.get("label") or header["run_id"],
            backend=backend,
            requeues=0,
        )
        row.update({name: r.get(name) for name in fields})
        rows.append(row)
    return rows


def _bench_event_rows(header: dict, records: list[dict], repeats: list[dict]) -> list[dict]:
    nnz_by_case = {
        r["case"]: r.get("result_nnz")
        for r in records
        if r.get("event") == "case_end"
    }
    backend_by_case = {
        r["case"]: r.get("backend")
        for r in records
        if r.get("event") == "case_end"
    }
    verified_cases = {
        r["case"] for r in records
        if r.get("event") == "case_end" and r.get("verified")
    }
    rows = []
    for r in repeats:
        case = r["case"]
        wall = r.get("wall_s")
        sim = r.get("sim_time_s")
        work = nnz_by_case.get(case)
        rows.append(_row(
            run_id=f"{header['run_id']}:{case}",
            source="events",
            config=case,
            backend=backend_by_case.get(case),
            repetition=int(r["repetition"]),
            samples=1,
            work=work,
            wall_total_s=wall,
            wall_mean_s=wall,
            wall_p50_s=wall,
            wall_p95_s=wall,
            sim_total_s=sim,
            sim_mean_s=sim,
            sim_p50_s=sim,
            sim_p95_s=sim,
            throughput_wall_per_s=_throughput(work, wall),
            throughput_sim_per_s=_throughput(work, sim),
            failures=0, retries=0, requeues=0, checkpoints=0, resumes=0,
            status="ok" if case in verified_cases else "incomplete",
        ))
    return rows


def _run_event_rows(path: Path, header: dict, records: list[dict]) -> dict:
    by_event: dict[str, list[dict]] = {}
    for r in records:
        by_event.setdefault(r.get("event", ""), []).append(r)

    units = by_event.get("unit_complete", [])
    sim_samples = [float(r["sim_s"]) for r in units if r.get("sim_s") is not None]
    work = sum(int(r.get("rows", 0)) for r in units) or None

    # wall latency samples: one per bracketed stage; whole-run fallback
    begins = {r["stage"]: float(r["wall_t"]) for r in by_event.get("stage_begin", [])}
    wall_samples = [
        float(r["wall_t"]) - begins[r["stage"]]
        for r in by_event.get("stage_end", [])
        if r.get("stage") in begins
    ]
    run_begin = by_event.get("run_begin", [])
    run_end = by_event.get("run_end", [])
    if run_begin and run_end:
        wall_total = float(run_end[-1]["wall_t"]) - float(run_begin[0]["wall_t"])
    elif records:
        wall_total = float(records[-1]["wall_t"])
    else:
        wall_total = None
    if not wall_samples and wall_total is not None:
        wall_samples = [wall_total]

    sim_total = max(
        (float(r["sim_t"]) for r in records if r.get("sim_t") is not None),
        default=None,
    )

    status = run_end[-1].get("status", "incomplete") if run_end else "incomplete"
    if by_event.get("deadline_exhausted"):
        status = "exhausted"

    backend = (header.get("provenance") or {}).get("backend")
    if isinstance(backend, dict):  # older job logs carried a whole spec
        backend = backend.get("backend")
    return _row(
        run_id=path.stem,
        source="events",
        config=header.get("label") or header["run_id"],
        backend=backend,
        repetition=0,
        samples=len(sim_samples) or len(wall_samples),
        work=work,
        wall_total_s=wall_total,
        wall_mean_s=_mean(wall_samples),
        wall_p50_s=_p50(wall_samples),
        wall_p95_s=_p95(wall_samples),
        sim_total_s=sim_total,
        sim_mean_s=_mean(sim_samples),
        sim_p50_s=_p50(sim_samples),
        sim_p95_s=_p95(sim_samples),
        throughput_wall_per_s=_throughput(work, wall_total),
        throughput_sim_per_s=_throughput(work, sim_total),
        failures=len(by_event.get("fault", [])),
        retries=len(by_event.get("unit_retry", [])),
        requeues=sum(int(r.get("units", 1)) for r in by_event.get("unit_curtailed", [])),
        checkpoints=len(by_event.get("checkpoint_write", [])),
        resumes=len(by_event.get("resume", [])),
        status=status,
    )


# -- bench-report rows ------------------------------------------------------

def rows_from_bench(doc: dict) -> list[dict]:
    """Rows from one ``repro-bench/1`` report: one per (case, repeat)
    when the report carries raw samples, else one summary row per case
    (older reports; median stands in for the single sample)."""
    rows = []
    for result in doc["results"]:
        case = result["case"]
        run_id = f"bench:{doc['rev']}:{case}"
        work = result.get("result_nnz")
        sim = result.get("sim_time_s")
        status = "ok" if result.get("verified") else "incomplete"
        samples = result["wall_s"].get("samples")
        if samples:
            per_rep = [(i, float(s)) for i, s in enumerate(samples)]
        else:
            per_rep = [(0, float(result["wall_s"]["median"]))]
        for repetition, wall in per_rep:
            rows.append(_row(
                run_id=run_id,
                source="bench",
                config=case,
                # reports predating the backend axis ran the then-only
                # vectorised implementation
                backend=result.get("backend", "numpy"),
                repetition=repetition,
                samples=1,
                work=work,
                wall_total_s=wall,
                wall_mean_s=wall,
                wall_p50_s=wall,
                wall_p95_s=wall,
                sim_total_s=sim,
                sim_mean_s=sim,
                sim_p50_s=sim,
                sim_p95_s=sim,
                throughput_wall_per_s=_throughput(work, wall),
                throughput_sim_per_s=_throughput(work, sim),
                failures=0, retries=0, requeues=0, checkpoints=0, resumes=0,
                status=status,
            ))
    return rows


# -- metrics-snapshot rows --------------------------------------------------

def rows_from_metrics(path: str | Path, doc: dict) -> list[dict]:
    """One summary row from a ``repro-metrics/1`` snapshot.

    Snapshots carry aggregates, not per-sample series, so percentile
    columns stay empty unless the snapshot has the Phase III histogram.
    """
    counters = doc.get("counters", {})
    gauges = doc.get("gauges", {})
    timers = doc.get("timers", {})
    histograms = doc.get("histograms", {})
    context = doc.get("context", {})

    work = (
        counters.get("phase3.workqueue.cpu.rows", 0)
        + counters.get("phase3.workqueue.gpu.rows", 0)
    ) or None
    sim_total = gauges.get("trace.makespan_s", gauges.get("result.total_time_s"))
    wall = timers.get("profile.run_wall_s")
    unit_hist = histograms.get("phase3.unit.sim_s")

    failures = int(
        counters.get("faults.crash.events", 0)
        + counters.get("faults.stall.events", 0)
        + counters.get("faults.transfer.errors", 0)
        + counters.get("faults.unit.errors", 0)
    )

    config = context.get("matrix")
    if config is not None and context.get("algorithm"):
        config = f"{config}/{context['algorithm']}"
    return [_row(
        run_id=f"metrics:{Path(path).stem}",
        source="metrics",
        config=config or Path(path).stem,
        repetition=0,
        samples=(unit_hist or {}).get("count", (wall or {}).get("count", 0)),
        work=work,
        wall_total_s=(wall or {}).get("total_s"),
        wall_mean_s=(wall or {}).get("mean_s"),
        wall_p50_s=None,
        wall_p95_s=None,
        sim_total_s=sim_total,
        sim_mean_s=(unit_hist or {}).get("mean"),
        sim_p50_s=(unit_hist or {}).get("p50"),
        sim_p95_s=(unit_hist or {}).get("p95"),
        throughput_wall_per_s=_throughput(work, (wall or {}).get("total_s")),
        throughput_sim_per_s=_throughput(work, sim_total),
        failures=failures,
        retries=int(counters.get("faults.unit.retries", 0)),
        requeues=int(counters.get("phase3.workqueue.requeues", 0)),
        checkpoints=int(counters.get("jobs.checkpoint.writes", 0)),
        resumes=int(counters.get("jobs.resume.count", 0)),
        status="exhausted" if counters.get("jobs.deadline.exhausted") else "ok",
    )]


# -- directory scan ---------------------------------------------------------

def build_run_table(directory: str | Path) -> dict:
    """Scan ``directory`` (recursively) and build the run table.

    Returns ``{"rows": [...], "files": {kind: [paths]}, "skipped":
    [(path, reason)]}``.  A bench run recorded both as a report and as
    an event log deduplicates on (run_id, repetition) — the event-log
    row wins (it carries per-repeat provenance).
    """
    directory = Path(directory)
    files: dict[str, list[str]] = {"events": [], "bench": [], "metrics": []}
    skipped: list[tuple[str, str]] = []
    by_key: dict[tuple, dict] = {}
    #: later sources never displace an events (or service) row
    precedence = {"events": 0, "service": 0, "bench": 1, "metrics": 2}

    def _add(rows: list[dict]) -> None:
        for row in rows:
            key = (row["run_id"], row["repetition"])
            existing = by_key.get(key)
            if existing is None or (
                precedence[row["source"]] < precedence[existing["source"]]
            ):
                by_key[key] = row

    for path in sorted(directory.rglob("*")):
        if not path.is_file():
            continue
        rel = str(path.relative_to(directory))
        if path.suffix == ".jsonl":
            try:
                rows = rows_from_events(path)
            except (ValueError, KeyError, json.JSONDecodeError) as exc:
                skipped.append((rel, f"unreadable event log: {exc}"))
                continue
            files["events"].append(rel)
            _add(rows)
        elif path.suffix == ".json":
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
            except (ValueError, OSError) as exc:
                skipped.append((rel, f"unreadable JSON: {exc}"))
                continue
            schema = doc.get("schema") if isinstance(doc, dict) else None
            if schema == "repro-bench/1":
                files["bench"].append(rel)
                _add(rows_from_bench(doc))
            elif schema == "repro-metrics/1":
                files["metrics"].append(rel)
                _add(rows_from_metrics(path, doc))
            else:
                skipped.append((rel, f"unrecognised schema {schema!r}"))

    rows = sorted(
        by_key.values(), key=lambda r: (str(r["run_id"]), int(r["repetition"]))
    )
    return {"rows": rows, "files": files, "skipped": skipped}


# -- CSV rendering ----------------------------------------------------------

def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def render_csv(rows: list[dict]) -> str:
    """The run table as a ``repro-runtable/3`` CSV string (byte-stable)."""
    buf = io.StringIO()
    buf.write(f"# {SCHEMA}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([name for name, _ in COLUMNS])
    for row in rows:
        writer.writerow([_fmt(row.get(name)) for name, _ in COLUMNS])
    return buf.getvalue()


def write_run_table(rows: list[dict], path: str | Path) -> None:
    Path(path).write_text(render_csv(rows), encoding="utf-8")


def load_run_table(path: str | Path) -> list[dict]:
    """Parse a run-table CSV back into rows (strings stay strings)."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0] != f"# {SCHEMA}":
        raise ValueError(f"{path}: missing '# {SCHEMA}' schema line")
    reader = csv.DictReader(io.StringIO("\n".join(lines[1:])))
    return [dict(row) for row in reader]


# -- configuration comparator ----------------------------------------------

def _metric_values(rows: list[dict], config: str, metric: str) -> list[float]:
    out = []
    for row in rows:
        if row.get("config") != config:
            continue
        value = row.get(metric)
        if value is None or value == "":
            continue
        out.append(float(value))
    return out


def _median(sorted_values: list[float]) -> float:
    return exact_percentile(sorted_values, 50.0)


def compare_tables(
    rows: list[dict],
    a_label: str,
    b_label: str,
    *,
    metric: str = "sim_total_s",
    seed: int = DEFAULT_SEED,
    n_bootstrap: int = 2000,
    n_permutation: int = 2000,
    alpha: float = 0.05,
) -> dict:
    """Compare two configuration labels on one run-table metric.

    Median delta (B − A) with a percentile-bootstrap 95% CI, plus a
    fixed-seed permutation test of the absolute median difference.
    ``significant`` requires the permutation p-value below ``alpha``.
    All draws come from one generator seeded through ``resolve_rng``,
    so repeated calls on the same rows return byte-identical verdicts.

    When both groups have zero within-group spread the metric is
    deterministic and the resampling machinery is skipped
    (``deterministic: true`` in the result, permutation/bootstrap ``n``
    report 0): the comparison is exact, so ``significant`` is simply
    ``delta != 0``.
    """
    if metric not in COMPARABLE_METRICS:
        raise ValueError(
            f"unknown metric {metric!r}; choose from {COMPARABLE_METRICS}"
        )
    a = _metric_values(rows, a_label, metric)
    b = _metric_values(rows, b_label, metric)
    if not a or not b:
        missing = a_label if not a else b_label
        raise ValueError(
            f"no rows with a {metric!r} value for config {missing!r}"
        )
    rng = resolve_rng(seed)
    med_a = _median(sorted(a))
    med_b = _median(sorted(b))
    delta = med_b - med_a

    deterministic = (
        max(a) - min(a) == 0.0 and max(b) - min(b) == 0.0
    )
    if deterministic:
        # Zero within-group spread: the metric is deterministic (e.g.
        # sim_total_s across fixed-seed repetitions).  Resampling a
        # two-valued pool has no resolving power — every permutation of
        # constant groups reproduces the same median gap — so the
        # comparison is exact: any nonzero delta is a real configuration
        # effect, and a zero delta is a real tie.
        ci_low = ci_high = delta
        p_value = 1.0 if delta == 0 else 0.0
        n_permutation = 0
        n_bootstrap = 0
        significant = delta != 0
    else:
        deltas = []
        for _ in range(n_bootstrap):
            res_a = [a[i] for i in rng.integers(0, len(a), size=len(a))]
            res_b = [b[i] for i in rng.integers(0, len(b), size=len(b))]
            deltas.append(_median(sorted(res_b)) - _median(sorted(res_a)))
        deltas.sort()
        ci_low = exact_percentile(deltas, 2.5)
        ci_high = exact_percentile(deltas, 97.5)

        observed = abs(delta)
        pooled = a + b
        at_least = 0
        for _ in range(n_permutation):
            perm = [pooled[i] for i in rng.permutation(len(pooled))]
            pa, pb = perm[:len(a)], perm[len(a):]
            stat = abs(_median(sorted(pb)) - _median(sorted(pa)))
            if stat >= observed - 1e-15:
                at_least += 1
        p_value = (1 + at_least) / (1 + n_permutation)

        significant = p_value < alpha
    if not significant or delta == 0:
        direction = "none"
    else:
        slower_is_higher = not metric.startswith("throughput")
        worse = delta > 0 if slower_is_higher else delta < 0
        direction = "b_worse" if worse else "b_better"
    return {
        "metric": metric,
        "alpha": alpha,
        "seed": seed,
        "a": {"config": a_label, "n": len(a), "median": med_a},
        "b": {"config": b_label, "n": len(b), "median": med_b},
        "delta": {
            "median": delta,
            "pct": (delta / med_a * 100.0) if med_a else 0.0,
            "ci95_low": ci_low,
            "ci95_high": ci_high,
            "bootstrap_n": n_bootstrap,
        },
        "permutation": {"p_value": p_value, "n": n_permutation},
        "deterministic": deterministic,
        "significant": significant,
        "direction": direction,
    }


# -- markdown summary -------------------------------------------------------

_MD_COLUMNS = (
    "run_id", "config", "repetition", "samples",
    "wall_p95_s", "sim_total_s", "sim_p95_s",
    "throughput_sim_per_s", "failures", "retries",
    "quarantined", "shed", "checkpoints", "resumes", "breaker_trips",
    "status",
)


def render_markdown(
    table: dict, comparison: dict | None = None, *, title: str = "Run table"
) -> str:
    """A human-readable summary: key columns + the comparator verdict."""
    rows = table["rows"]
    files = table.get("files", {})
    lines = [
        f"# {title}",
        "",
        f"`{SCHEMA}` — {len(rows)} row(s) from "
        + ", ".join(
            f"{len(files.get(kind, []))} {kind} file(s)"
            for kind in ("events", "bench", "metrics")
        )
        + ".",
        "",
        "| " + " | ".join(_MD_COLUMNS) + " |",
        "|" + "|".join("---" for _ in _MD_COLUMNS) + "|",
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(_fmt(row.get(c)) or "-" for c in _MD_COLUMNS) + " |"
        )
    for rel, reason in table.get("skipped", []):
        lines.append(f"\n- skipped `{rel}`: {reason}")
    if comparison is not None:
        cmp = comparison
        verdict = (
            "**significant difference**"
            if cmp["significant"]
            else "no significant difference"
        )
        lines.extend([
            "",
            f"## Comparison: `{cmp['a']['config']}` vs `{cmp['b']['config']}` "
            f"on `{cmp['metric']}`",
            "",
            f"- median A = {_fmt(cmp['a']['median'])} (n={cmp['a']['n']}), "
            f"median B = {_fmt(cmp['b']['median'])} (n={cmp['b']['n']})",
            f"- median delta (B − A) = {_fmt(cmp['delta']['median'])} "
            f"({cmp['delta']['pct']:+.2f}%), "
            f"bootstrap 95% CI [{_fmt(cmp['delta']['ci95_low'])}, "
            f"{_fmt(cmp['delta']['ci95_high'])}]",
            (
                "- deterministic metric (zero spread in both groups): "
                "exact comparison, resampling skipped"
                if cmp.get("deterministic")
                else f"- permutation test: p = {_fmt(cmp['permutation']['p_value'])} "
                f"({cmp['permutation']['n']} permutations, fixed seed {cmp['seed']})"
            ),
            f"- verdict: {verdict} at alpha = {_fmt(cmp['alpha'])}"
            + (f" (direction: {cmp['direction']})" if cmp["significant"] else ""),
        ])
    lines.append("")
    return "\n".join(lines)
