"""The ``repro.bench`` harness: deterministic workloads, schema-valid
verified reports, the regression comparator, the CLI exit codes, and
the headline vectorisation speedup."""

import json

import numpy as np
import pytest

from repro.__main__ import main as repro_main
from repro.bench import (
    SCHEMA,
    compare_reports,
    get_case,
    get_workload,
    iter_cases,
    iter_workloads,
    load_report,
    run_bench,
    run_case,
    validate_report,
    write_report,
)
from repro.obs import observed

# -- workloads -------------------------------------------------------------

def test_workloads_are_deterministic():
    for wl in iter_workloads():
        a1, b1 = wl.build()
        a2, b2 = wl.build()
        np.testing.assert_array_equal(a1.indptr, a2.indptr)
        np.testing.assert_array_equal(a1.indices, a2.indices)
        np.testing.assert_array_equal(a1.data, a2.data)
        np.testing.assert_array_equal(b1.data, b2.data)


def test_workload_and_case_names_are_metric_safe():
    # slugs become one segment of bench.case.{case}.wall_s
    for wl in iter_workloads():
        assert "." not in wl.name
    for case in iter_cases():
        assert "." not in case.name


def test_unknown_workload_and_case_raise():
    with pytest.raises(KeyError, match="unknown workload"):
        get_workload("no-such-workload")
    with pytest.raises(KeyError, match="unknown case"):
        get_case("no-such-case")


def test_smoke_filter_selects_nonempty_cheap_subset():
    smoke = iter_cases("smoke")
    assert smoke
    assert len(smoke) < len(iter_cases())
    # the smoke subset carries every kernel label and an end-to-end run;
    # the speedup denominators are the same cases under the reference axis
    names = {c.name for c in smoke}
    assert "hash-powerlaw-sm" in names
    assert "e2e-hhcpu-powerlaw-sm" in names
    assert not any("slow" in n or "rowwise" in n for n in names)


# -- the harness -----------------------------------------------------------

def test_run_case_emits_schema_row_and_verifies():
    row = run_case(get_case("hash-uniform-sm"), warmup=0, repeats=2)
    assert row["case"] == "hash-uniform-sm"
    assert row["kind"] == "kernel"
    assert row["verified"] is True
    assert row["verification"] == "bit_identical"
    assert row["sim_time_s"] is None
    assert row["wall_s"]["repeats"] == 2
    assert row["wall_s"]["median"] > 0
    assert row["wall_s"]["min"] <= row["wall_s"]["median"] <= row["wall_s"]["max"]
    # raw per-repeat samples for the run-table aggregator, in run order
    samples = row["wall_s"]["samples"]
    assert len(samples) == 2 and all(s > 0 for s in samples)
    assert sorted(samples)[0] == row["wall_s"]["min"]


def test_end_to_end_case_separates_sim_from_wall():
    row = run_case(get_case("e2e-hhcpu-powerlaw-sm"), warmup=0, repeats=1)
    assert row["kind"] == "end_to_end"
    assert row["verification"] == "allclose"
    # simulated platform time is a model output, independent of (and in
    # general very different from) the host wall time measured around it
    assert row["sim_time_s"] is not None and row["sim_time_s"] > 0
    assert row["wall_s"]["median"] > 0


def test_run_bench_report_schema_and_roundtrip(tmp_path):
    report = run_bench(filter_substr="hash-uniform", warmup=0, repeats=2,
                       rev="testrev")
    assert report["schema"] == SCHEMA
    assert report["rev"] == "testrev"
    validate_report(report)
    path = tmp_path / "BENCH_testrev.json"
    write_report(report, str(path))
    again = load_report(str(path))
    assert [r["case"] for r in again["results"]] == sorted(
        r["case"] for r in report["results"]
    )
    # deterministic serialisation: same report dumps identically
    assert path.read_text() == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_run_bench_unknown_filter_raises():
    with pytest.raises(ValueError, match="no bench cases match"):
        run_bench(filter_substr="zzz-no-match")


def test_validate_report_rejects_bad_schema():
    with pytest.raises(ValueError, match="unsupported bench schema"):
        validate_report({"schema": "repro-bench/99"})
    with pytest.raises(ValueError, match="missing"):
        validate_report({"schema": SCHEMA, "rev": "x", "host": {}, "config": {},
                         "results": [{"case": "c"}]})


def test_bench_metrics_are_declared_and_emitted():
    with observed(validate=True) as (metrics, _):
        run_case(get_case("esc-uniform-sm"), warmup=0, repeats=2)
        snap = metrics.snapshot()
    assert snap["counters"]["bench.cases"] == 1
    assert snap["counters"]["bench.repeats"] == 2
    assert snap["counters"]["bench.verifications"] == 1
    assert snap["timers"]["bench.case.esc-uniform-sm.wall_s"]["count"] == 2
    assert snap["histograms"]["bench.case.esc-uniform-sm.wall_hist_s"]["count"] == 2


# -- the regression comparator ---------------------------------------------

def _fake_report(cases):
    return {
        "schema": SCHEMA, "rev": "r", "host": {}, "config": {},
        "results": [
            {
                "case": name, "kind": "kernel", "workload": "w", "tags": [],
                "wall_s": {"median": med, "iqr": 0.0, "min": med, "max": med,
                           "repeats": 3},
                "sim_time_s": sim, "verified": True,
                "verification": "bit_identical", "result_nnz": 1,
            }
            for name, med, sim in cases
        ],
    }


def test_compare_reports_flags_only_threshold_breaches():
    old = _fake_report([("a", 0.100, None), ("b", 0.100, None)])
    new = _fake_report([("a", 0.110, None), ("b", 0.200, None)])
    cmp = compare_reports(old, new, fail_pct=25.0)
    by_case = {e["case"]: e for e in cmp["rows"]}
    assert not by_case["a"]["regressed"]  # +10% is under the gate
    assert by_case["b"]["regressed"]      # +100% trips it
    assert [e["case"] for e in cmp["regressions"]] == ["b"]


def test_compare_reports_improvements_and_missing_cases():
    old = _fake_report([("a", 0.200, None)])
    new = _fake_report([("a", 0.100, None), ("fresh", 0.5, None)])
    cmp = compare_reports(old, new, fail_pct=25.0)
    assert cmp["rows"][0]["pct"] == pytest.approx(-50.0)
    assert not cmp["regressions"]
    assert cmp["missing"] == ["fresh"]


def test_compare_reports_tracks_sim_time_drift_without_gating():
    old = _fake_report([("a", 0.100, 1.0)])
    new = _fake_report([("a", 0.100, 2.0)])
    cmp = compare_reports(old, new, fail_pct=25.0)
    assert cmp["rows"][0]["sim_changed"]
    assert not cmp["regressions"]


def test_compare_reports_detects_host_mismatch():
    old = _fake_report([("a", 0.100, None)])
    new = _fake_report([("a", 0.100, None)])
    old["host"] = {"python": "3.11.9", "numpy": "1.26.4", "machine": "x86_64"}
    new["host"] = {"python": "3.12.1", "numpy": "1.26.4", "machine": "aarch64"}
    cmp = compare_reports(old, new)
    assert set(cmp["host_mismatch"]) == {"python", "machine"}
    assert cmp["host_mismatch"]["python"] == {"old": "3.11.9", "new": "3.12.1"}
    # identical hosts report nothing
    new["host"] = dict(old["host"])
    assert compare_reports(old, new)["host_mismatch"] == {}


# -- CLI -------------------------------------------------------------------

def test_cli_list_and_usage_errors(capsys):
    assert repro_main(["bench", "--list"]) == 0
    assert "hash-powerlaw-sm" in capsys.readouterr().out
    assert repro_main(["bench", "--fail-on-regress", "10"]) == 2
    assert repro_main(["bench", "--list", "--filter", "zzz-no-match"]) == 2


def test_cli_bench_run_compare_and_regression_gate(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    out1 = tmp_path / "BENCH_base.json"
    assert repro_main(["bench", "--filter", "esc-uniform", "--repeats", "2",
                       "--warmup", "0", "--out", str(out1)]) == 0
    capsys.readouterr()
    out2 = tmp_path / "BENCH_new.json"
    assert repro_main(["bench", "--filter", "esc-uniform", "--repeats", "2",
                       "--warmup", "0", "--out", str(out2),
                       "--compare", str(out1),
                       "--fail-on-regress", "400"]) == 0
    assert "compared against" in capsys.readouterr().out
    # shrink the baseline so the same run counts as a huge regression
    base = json.loads(out1.read_text())
    for row in base["results"]:
        row["wall_s"]["median"] *= 1e-3
    out1.write_text(json.dumps(base))
    assert repro_main(["bench", "--filter", "esc-uniform", "--repeats", "2",
                       "--warmup", "0", "--out", str(out2),
                       "--compare", str(out1),
                       "--fail-on-regress", "25"]) == 1
    assert "REGRESSED" in capsys.readouterr().out


def test_cli_compare_warns_on_host_mismatch(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out1 = tmp_path / "BENCH_base.json"
    assert repro_main(["bench", "--filter", "esc-uniform", "--repeats", "1",
                       "--warmup", "0", "--out", str(out1)]) == 0
    # forge a baseline from a different interpreter/architecture
    base = json.loads(out1.read_text())
    base["host"] = {"python": "3.10.0", "numpy": "1.24.0", "machine": "other"}
    out1.write_text(json.dumps(base))
    capsys.readouterr()
    assert repro_main(["bench", "--filter", "esc-uniform", "--repeats", "1",
                       "--warmup", "0", "--out", str(tmp_path / "b2.json"),
                       "--compare", str(out1)]) == 0
    out = capsys.readouterr().out
    assert "WARNING: host metadata differs" in out
    assert "machine: baseline 'other'" in out


def test_cli_bench_export_events(tmp_path, capsys, monkeypatch):
    from repro.obs.events import read_events

    monkeypatch.chdir(tmp_path)
    events_path = tmp_path / "bench_events.jsonl"
    assert repro_main(["bench", "--filter", "esc-uniform", "--repeats", "2",
                       "--warmup", "0", "--out", str(tmp_path / "b.json"),
                       "--export-events", str(events_path)]) == 0
    assert "event log written to" in capsys.readouterr().out
    header, records = read_events(events_path)
    assert header["run_id"].startswith("bench:")
    assert header["provenance"]["config"]["repeats"] == 2
    repeats = [r for r in records if r["event"] == "repeat"]
    assert [r["repetition"] for r in repeats] == [0, 1]
    ends = [r for r in records if r["event"] == "case_end"]
    assert len(ends) == 1 and ends[0]["verified"] is True
    assert records[-1]["status"] == "ok"


# -- the headline acceptance criterion -------------------------------------

def test_vectorised_hash_kernel_speedup_on_powerlaw():
    """The engine must beat the dictionary-walk oracle by >= 5x host wall
    time on the power-law bench workload."""
    case = get_case("hash-powerlaw-sm")
    fast = run_case(case, warmup=1, repeats=3)
    slow = run_case(case, warmup=1, repeats=3, backend="reference")
    assert slow["backend"] == "reference"
    speedup = slow["wall_s"]["median"] / fast["wall_s"]["median"]
    assert speedup >= 5.0, f"hash vectorisation speedup only {speedup:.1f}x"
