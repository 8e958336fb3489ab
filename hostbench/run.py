"""Host wall-time benchmark of HH-CPU: run one workload once.

    python3 hostbench/run.py --workload hub-expand --seed 1 --seconds 24 --trace 0

Runs ``workload.py`` in fresh, single-threaded child processes with the
numpy hugepage policy given by ``--numpy-madvise-hugepage``, and prints
on standard output an environment stamp line, which also holds the
seed's simulated fingerprints and product digests, and then the result
as the last line: one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` it starts PROCESSES
children one after another, each measuring an equal share of
``--seconds``, and pools their samples: per-process state (heap layout,
page placement) moves one process's median by up to ~10% on a shared
host, while the spread of pooled three-process medians measured about a
quarter of that.  The children must agree on the fingerprints and
digests.  With ``--trace 1`` one child runs for all ``--seconds``.
Exits 1 without a result when a child fails (for instance in a tree
without the library's ``src/``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: per-run scratch (checkpoints, TMPDIR) inside the checkout; removed after
WORKDIR = ROOT / ".hostbench-work"
#: the whole run must end within 180 s
TIMEOUT_S = 170
PROCESSES = 3


def child_env(hugepage: int) -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["NUMPY_MADVISE_HUGEPAGE"] = str(hugepage)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(WORKDIR)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def end_to_end(docs: list[dict]) -> dict[str, dict[str, object]]:
    """The end-to-end metrics of the pooled child samples.

    An op is ``[wall_s, completed, executions]``: one multiply, or one
    serving load of several batched executions.
    """
    ops = [op for doc in docs for op in doc["ops"]]
    values = {
        "multiply_s": ("s", statistics.median(wall / ex for wall, _, ex in ops)),
        "requests_per_s": ("req/s", sum(op[1] for op in ops) / sum(op[0] for op in ops)),
        "setup_s": ("s", statistics.median(t for doc in docs for t in doc["setups"])),
        "peak_rss_mb": ("MB", statistics.median(doc["peak_rss_mb"] for doc in docs)),
    }
    return {name: {"value": value, "unit": unit} for name, (unit, value) in values.items()}


def pooled(docs: list[dict], trace: bool) -> dict[str, object]:
    """The run's result from its children's documents.

    Every child ran the same seed, so each must report the first one's
    ``identity`` (simulated fingerprints and product digests); a child
    that does not counts as one failed operation.
    """
    disagree = sum(doc["identity"] != docs[0]["identity"] for doc in docs)
    if disagree:
        print(f"hostbench: {disagree} of {len(docs)} processes disagree on the "
              "fingerprints or product digests of one seed", file=sys.stderr)
    return {
        "correct": all(doc["correct"] for doc in docs) and not disagree,
        "attempted": sum(doc["attempted"] for doc in docs),
        "failed": sum(doc["failed"] for doc in docs) + disagree,
        "metrics": docs[0]["metrics"] if trace else end_to_end(docs),
    }


def run_child(args: argparse.Namespace, seconds: float, env: dict[str, str],
              deadline: float) -> tuple[str, dict] | None:
    """One workload process; its stamp line and result, or None."""
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--workdir", str(WORKDIR)]
    try:
        child = subprocess.run(cmd, env=env, capture_output=True, text=True,
                               timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"hostbench: {args.workload} exceeded {TIMEOUT_S} s", file=sys.stderr)
        return None
    sys.stderr.write(child.stderr)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or len(lines) < 2:
        print(f"hostbench: {args.workload} failed (exit {child.returncode})", file=sys.stderr)
        return None
    try:
        return lines[-2], json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"hostbench: {args.workload} printed no result", file=sys.stderr)
        return None


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Run one hostbench workload once.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--numpy-madvise-hugepage", type=int, choices=(0, 1), default=1,
                   help="NUMPY_MADVISE_HUGEPAGE for the workload processes")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"hostbench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    deadline = time.monotonic() + TIMEOUT_S
    env = child_env(args.numpy_madvise_hugepage)
    processes = 1 if args.trace else PROCESSES
    outputs = []
    WORKDIR.mkdir(exist_ok=True)
    try:
        for _ in range(processes):
            out = run_child(args, args.seconds / processes, env, deadline)
            if out is None:
                return 1
            outputs.append(out)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    docs = [doc for _, doc in outputs]
    stamp = json.loads(outputs[0][0])
    print(json.dumps({**stamp, "identity": docs[0]["identity"]}))
    print(json.dumps(pooled(docs, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
