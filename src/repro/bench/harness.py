"""Timing harness, report schema, and the regression comparator.

This module is the library's **sanctioned host-timing boundary**: real
wall-clock measurement happens here and nowhere else.  The CLK001 lint
rule bans host clocks from the simulation tree (``repro.core``,
``repro.kernels``, ``repro.costmodel``, ``repro.hetero``,
``repro.hardware``) because simulated results must never depend on how
fast the host runs; the bench harness *deliberately* measures the host,
and reports host wall time and modelled simulated time as separate,
clearly-labelled fields.

Timing protocol: ``warmup`` untimed executions (allocator / cache
warm-up), then ``repeats`` timed executions summarised as median + IQR
(robust to scheduler noise; means are not reported on purpose).

Reports serialise to the ``repro-bench/1`` JSON schema — deterministic
key order, results sorted by case name — so two reports diff cleanly
and :func:`compare_reports` can gate CI on a regression threshold.
"""

from __future__ import annotations

import json
import subprocess
from time import perf_counter  # repro: noqa[DET001,CLK001] — the bench harness is the one sanctioned host-timing site: it measures real kernel wall time, reported separately from (never mixed into) simulated time

import numpy as np

from repro.bench.cases import BenchCase, iter_cases, verify_against_scipy
from repro.formats.validation import ensure_canonical
from repro.kernels import resolve_backend
from repro.obs.events import EVENTS, host_info
from repro.obs.metrics import METRICS

#: report schema identifier; bump on any structural change
SCHEMA = "repro-bench/1"

#: default timing protocol
DEFAULT_WARMUP = 1
DEFAULT_REPEATS = 5


def git_rev(cwd: str | None = None) -> str:
    """Short git revision of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def _wall_summary(samples: list[float]) -> dict:
    arr = np.asarray(samples, dtype=float)
    q25, med, q75 = np.percentile(arr, [25.0, 50.0, 75.0])
    return {
        "median": float(med),
        "iqr": float(q75 - q25),
        "min": float(arr.min()),
        "max": float(arr.max()),
        "repeats": int(arr.size),
        # raw per-repeat samples, in run order: the run-table aggregator
        # turns these into one row per (case, repetition)
        "samples": [float(s) for s in samples],
    }


def run_case(
    case: BenchCase, *, warmup: int, repeats: int, backend: str | None = None
) -> dict:
    """Time one case and verify its result; return one schema row.

    ``backend`` selects the kernel backend the case runs under
    (``None`` = ``numpy``).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    effective = resolve_backend(backend)
    a, b = case.load_workload().build()
    # same validation gate as the algorithms: a malformed workload fails
    # loudly here instead of skewing timings or the scipy verification
    same = b is a
    a = ensure_canonical(a, name=f"{case.workload}.a")
    b = a if same else ensure_canonical(b, name=f"{case.workload}.b")
    run = case.make(a, b, effective)
    for _ in range(warmup):
        run()
    samples: list[float] = []
    out = None
    for i in range(repeats):
        t0 = perf_counter()
        out = run()
        samples.append(perf_counter() - t0)
        if METRICS.enabled:
            METRICS.inc("bench.repeats")
            METRICS.observe(f"bench.case.{case.name}.wall_s", samples[-1])
            METRICS.record(f"bench.case.{case.name}.wall_hist_s", samples[-1])
        if EVENTS.enabled:
            EVENTS.emit(
                "repeat", case=case.name, repetition=i,
                wall_s=samples[-1], sim_time_s=out.sim_time_s,
            )
    mask = case.b_row_mask(a, b) if case.b_row_mask is not None else None
    # kernels keep the k-major stream order, so they are bit-identical
    # to scipy; end-to-end merges sum partials in another association
    # order and are verified with allclose
    exact = case.kind == "kernel"
    verify_against_scipy(a, b, out, mask=mask, exact=exact)
    if METRICS.enabled:
        METRICS.inc("bench.cases")
        METRICS.inc("bench.verifications")
        if out.sim_time_s is not None:
            METRICS.set_gauge(f"bench.case.{case.name}.sim_time_s", out.sim_time_s)
    if EVENTS.enabled:
        EVENTS.emit(
            "case_end", case=case.name, kind=case.kind,
            workload=case.workload, result_nnz=int(out.matrix.nnz),
            backend=effective, verified=True,
        )
    return {
        "case": case.name,
        "kind": case.kind,
        "workload": case.workload,
        "tags": sorted(case.tags),
        "backend": effective,
        "wall_s": _wall_summary(samples),
        "sim_time_s": out.sim_time_s,
        "verified": True,
        "verification": "bit_identical" if exact else "allclose",
        "result_nnz": int(out.matrix.nnz),
    }


def run_bench(
    *,
    filter_substr: str | None = None,
    warmup: int = DEFAULT_WARMUP,
    repeats: int = DEFAULT_REPEATS,
    rev: str | None = None,
    backend: str | None = None,
    progress=None,
) -> dict:
    """Run every matching case and assemble a ``repro-bench/1`` report.

    ``backend`` is the report-wide kernel-backend axis (default
    ``numpy``).
    """
    cases = iter_cases(filter_substr)
    if not cases:
        raise ValueError(f"no bench cases match filter {filter_substr!r}")
    results = []
    for case in cases:
        if progress is not None:
            progress(case)
        results.append(
            run_case(case, warmup=warmup, repeats=repeats, backend=backend)
        )
    return {
        "schema": SCHEMA,
        "rev": rev if rev is not None else git_rev(),
        "host": host_info(),
        "config": {
            "warmup": warmup,
            "repeats": repeats,
            "filter": filter_substr,
            "backend": resolve_backend(backend),
        },
        "results": results,
    }


def validate_report(report: dict) -> None:
    """Structural check of a report; raise ``ValueError`` on mismatch."""
    if report.get("schema") != SCHEMA:
        raise ValueError(
            f"unsupported bench schema {report.get('schema')!r}; expected {SCHEMA!r}"
        )
    for key in ("rev", "host", "config", "results"):
        if key not in report:
            raise ValueError(f"bench report missing {key!r}")
    for row in report["results"]:
        for key in ("case", "kind", "workload", "wall_s", "sim_time_s", "verified"):
            if key not in row:
                raise ValueError(f"bench row missing {key!r}: {row.get('case')}")
        for key in ("median", "iqr", "min", "max", "repeats"):
            if key not in row["wall_s"]:
                raise ValueError(f"bench row wall_s missing {key!r}: {row['case']}")


def write_report(report: dict, path: str) -> None:
    validate_report(report)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    validate_report(report)
    return report


def host_mismatch(old: dict, new: dict) -> dict:
    """Host-metadata keys that differ between two reports.

    Returns ``{key: {"old": ..., "new": ...}}`` for every ``host`` key
    (python/numpy/machine) whose values differ — wall-time comparisons
    across different hosts or library versions measure the environment,
    not the code, and must be reported as such.
    """
    old_host = old.get("host") or {}
    new_host = new.get("host") or {}
    out = {}
    for key in sorted(set(old_host) | set(new_host)):
        if old_host.get(key) != new_host.get(key):
            out[key] = {"old": old_host.get(key), "new": new_host.get(key)}
    return out


def compare_reports(old: dict, new: dict, *, fail_pct: float | None = None) -> dict:
    """Case-by-case wall-time comparison of two reports.

    Returns ``{"rows": [...], "regressions": [...], "missing": [...],
    "host_mismatch": {...}, "backend_mismatch": [...]}``: one row per
    case present in both reports with the percent change of the
    wall-time median (positive = new is slower); cases exceeding
    ``fail_pct`` land in ``regressions``.  Simulated-time drift is
    reported per row (``sim_changed``) but never gates — a modelled-time
    change is a semantic change to review, not host noise.
    ``host_mismatch`` (see :func:`host_mismatch`) is non-empty when the
    two reports came from different python/numpy/machine triples, in
    which case the wall-time deltas are cross-environment and should be
    read as such.  ``backend_mismatch`` gets the same treatment on the
    kernel-backend axis: a case whose two rows ran under different
    backends is flagged (per row and in the summary list, ``{"case",
    "old", "new"}``) because its delta measures the backend swap, not a
    code change — never compared silently.  Reports predating the
    backend axis default to ``numpy``, the then-only implementation.
    """
    old_rows = {row["case"]: row for row in old["results"]}
    rows, regressions, missing = [], [], []
    backend_mismatch = []
    for row in new["results"]:
        base = old_rows.get(row["case"])
        if base is None:
            missing.append(row["case"])
            continue
        old_med = base["wall_s"]["median"]
        new_med = row["wall_s"]["median"]
        pct = ((new_med - old_med) / old_med * 100.0) if old_med > 0 else 0.0
        old_backend = base.get("backend", "numpy")
        new_backend = row.get("backend", "numpy")
        entry = {
            "case": row["case"],
            "old_median_s": old_med,
            "new_median_s": new_med,
            "pct": pct,
            "sim_changed": base["sim_time_s"] != row["sim_time_s"],
            "backend_mismatch": old_backend != new_backend,
            "regressed": fail_pct is not None and pct > fail_pct,
        }
        rows.append(entry)
        if entry["backend_mismatch"]:
            backend_mismatch.append(
                {"case": row["case"], "old": old_backend, "new": new_backend}
            )
        if entry["regressed"]:
            regressions.append(entry)
    return {
        "rows": rows,
        "regressions": regressions,
        "missing": missing,
        "host_mismatch": host_mismatch(old, new),
        "backend_mismatch": backend_mismatch,
    }
