"""``python -m repro bench`` — run, report, and gate on benchmarks.

    python -m repro bench                         # run everything
    python -m repro bench --filter smoke          # the CI subset
    python -m repro bench --backend reference     # the kernel-backend axis
    python -m repro bench --list                  # show cases + backends
    python -m repro bench --compare BENCH_old.json --fail-on-regress 25

Exit codes: 0 clean, 1 regression (or verification failure), 2 usage.
"""

from __future__ import annotations

import argparse

from repro.bench.cases import iter_cases
from repro.bench.harness import (
    DEFAULT_REPEATS,
    DEFAULT_WARMUP,
    compare_reports,
    git_rev,
    load_report,
    run_bench,
    write_report,
)
from repro.kernels import BACKENDS, DEFAULT_BACKEND


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--filter", default=None, metavar="SUBSTR",
        help="run only cases whose name/workload/tag contains SUBSTR "
             "(e.g. 'smoke' for the CI subset, 'hash' for one kernel)")
    parser.add_argument(
        "--backend", default=None, choices=sorted(BACKENDS),
        help=f"kernel backend to time (default {DEFAULT_BACKEND}: the "
             "engine; reference: the scalar oracle)")
    parser.add_argument(
        "--warmup", type=int, default=DEFAULT_WARMUP,
        help=f"untimed warm-up executions per case (default {DEFAULT_WARMUP})")
    parser.add_argument(
        "--repeats", type=int, default=DEFAULT_REPEATS,
        help=f"timed executions per case (default {DEFAULT_REPEATS})")
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="report path (default BENCH_<rev>.json in the current directory)")
    parser.add_argument(
        "--compare", default=None, metavar="BASELINE",
        help="previous BENCH_*.json to compare wall-time medians against")
    parser.add_argument(
        "--fail-on-regress", type=float, default=None, metavar="PCT",
        help="with --compare: exit 1 if any case's median regresses "
             "by more than PCT percent")
    parser.add_argument(
        "--export-events", default=None, metavar="PATH",
        help="record a repro-events/1 JSONL event log of the bench run "
             "(one repeat event per timed execution; feed the directory "
             "to `python -m repro report`)")
    parser.add_argument(
        "--list", action="store_true",
        help="list matching cases and exit without running anything")


def run_bench_command(args: argparse.Namespace) -> int:
    if args.fail_on_regress is not None and args.compare is None:
        print("bench: --fail-on-regress requires --compare")
        return 2
    cases = iter_cases(args.filter)
    if args.list:
        if not cases:
            print(f"no bench cases match filter {args.filter!r}")
            return 2
        print(f"backends: {', '.join(sorted(BACKENDS))}")
        print()
        for case in cases:
            tags = f" [{', '.join(sorted(case.tags))}]" if case.tags else ""
            print(f"{case.name:28s} {case.kind:10s} {case.workload:14s}"
                  f"{tags}  {case.description}")
        return 0
    rev = git_rev()

    def timed_run():
        return run_bench(
            filter_substr=args.filter, warmup=args.warmup, repeats=args.repeats,
            rev=rev, backend=args.backend,
            progress=lambda c: print(f"  bench {c.name} ..."),
        )

    try:
        if args.export_events:
            from repro.obs.events import event_log, host_info

            with event_log(
                args.export_events,
                run_id=f"bench:{rev}",
                provenance={
                    "host": host_info(),
                    "rev": rev,
                    "config": {
                        "filter": args.filter,
                        "warmup": args.warmup,
                        "repeats": args.repeats,
                        "backend": args.backend or DEFAULT_BACKEND,
                    },
                },
            ):
                report = timed_run()
            print(f"event log written to {args.export_events}")
        else:
            report = timed_run()
    except AssertionError as exc:
        print(f"bench: VERIFICATION FAILED — {exc}")
        return 1
    except ValueError as exc:
        print(f"bench: {exc}")
        return 2
    out_path = args.out or f"BENCH_{report['rev']}.json"
    write_report(report, out_path)
    print(f"\n{'case':28s} {'kind':10s} {'median':>10s} {'iqr':>10s}  sim_time")
    for row in report["results"]:
        sim = f"{row['sim_time_s']:.4f}s" if row["sim_time_s"] is not None else "-"
        print(f"{row['case']:28s} {row['kind']:10s} "
              f"{row['wall_s']['median']*1e3:9.2f}ms {row['wall_s']['iqr']*1e3:9.2f}ms"
              f"  {sim}")
    print(f"\nreport written to {out_path} (rev {report['rev']}, "
          f"{len(report['results'])} cases, all verified against scipy)")
    if args.compare is None:
        return 0
    baseline = load_report(args.compare)
    cmp = compare_reports(baseline, report, fail_pct=args.fail_on_regress)
    print(f"\ncompared against {args.compare} (rev {baseline['rev']}):")
    if cmp["host_mismatch"]:
        print("  WARNING: host metadata differs between the reports — "
              "wall-time deltas below are cross-environment:")
        for key, pair in sorted(cmp["host_mismatch"].items()):
            print(f"    {key}: baseline {pair['old']!r} vs current {pair['new']!r}")
    if cmp["backend_mismatch"]:
        print("  WARNING: kernel backend differs between the reports for "
              "the case(s) below — their deltas measure the backend swap, "
              "not a code change:")
        for entry in cmp["backend_mismatch"]:
            print(f"    {entry['case']}: baseline {entry['old']!r} "
                  f"vs current {entry['new']!r}")
    for entry in cmp["rows"]:
        flag = "  REGRESSED" if entry["regressed"] else ""
        sim = "  (sim time changed)" if entry["sim_changed"] else ""
        print(f"  {entry['case']:28s} {entry['old_median_s']*1e3:9.2f}ms "
              f"-> {entry['new_median_s']*1e3:9.2f}ms  {entry['pct']:+7.1f}%"
              f"{flag}{sim}")
    for name in cmp["missing"]:
        print(f"  {name:28s} (no baseline entry; skipped)")
    if cmp["regressions"]:
        worst = max(cmp["regressions"], key=lambda e: e["pct"])
        print(f"\nbench: {len(cmp['regressions'])} case(s) regressed beyond "
              f"{args.fail_on_regress:.0f}% (worst: {worst['case']} "
              f"{worst['pct']:+.1f}%)")
        return 1
    return 0
