"""Run the benchmark N times per workload and report how steady it is.

    python3 hostbench/steadiness.py --runs 10
    python3 hostbench/steadiness.py --runs 5 --workloads powerlaw-long --seconds 10

Each run is ``run.py`` with its own seed (``--first-seed``, +1 per run),
using the command, workloads and ``run_seconds`` of ``BENCHMARK.json``
unless overridden.  For every workload and metric it prints the median,
the quartiles (``statistics.quantiles(n=4)``), min and max, and the
quartile spread as a share of the median next to the metric's bound;
``ok`` means the spread is under a third of the bound.  ``--out`` also
writes every run's values as JSON.  Exits 1 if any run fails or reports
``correct: false``.  Each run's values and wall time go to standard error
as it ends.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    p = argparse.ArgumentParser(description="Steadiness of the hostbench metrics.")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="write every run's values here as JSON")
    args = p.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    raw: dict[str, dict[str, list[float]]] = {}
    bad = 0
    for workload in args.workloads:
        raw[workload] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = time.monotonic()
            doc = run_once(spec["command"], workload, seed, args.seconds, args.trace)
            elapsed = time.monotonic() - start
            if not doc["correct"] or doc["failed"]:
                bad += 1
                print(f"{workload} seed {seed}: correct={doc['correct']} "
                      f"failed={doc['failed']}/{doc['attempted']}", file=sys.stderr)
            for name, m in doc["metrics"].items():
                raw[workload].setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed} ({elapsed:.1f} s): " + " ".join(
                f"{name}={m['value']:.6g}" for name, m in doc["metrics"].items()
            ), file=sys.stderr, flush=True)
        print(f"{'workload':16} {'metric':30} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'min':>12} {'max':>12} {'spread':>7} {'bound':>6}")
        for name, values in raw[workload].items():
            s = summarize(values)
            bound = bounds.get(name)
            verdict = "" if bound is None else ("ok" if s["spread"] < bound / 3 else "WIDE")
            print(f"{workload:16} {name:30} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['min']:12.6g} {s['max']:12.6g} "
                  f"{s['spread']:7.3f} {bound if bound is not None else '':>6} {verdict}",
                  flush=True)
    if args.out:
        args.out.write_text(json.dumps(raw, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
