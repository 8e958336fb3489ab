"""``python -m repro run``: the durable job runner CLI.

Exit codes follow the structured error taxonomy:

- ``0`` — the job ran (or resumed) to completion;
- ``1`` — :class:`~repro.util.errors.ResourceExhausted`: a budget
  (simulated deadline or memory) was spent; the job is checkpointed and
  resumable with ``--resume`` and a larger budget;
- ``2`` — :class:`~repro.util.errors.InvalidInputError` /
  :class:`~repro.util.errors.CheckpointCorrupt` / usage errors: the
  inputs or the checkpoint directory are unusable.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.kernels import BACKENDS
from repro.scalefree import DATASET_NAMES


def add_run_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("matrix", choices=DATASET_NAMES,
                   help="Table I dataset to square (C = A x A)")
    p.add_argument("--scale", type=float, default=None,
                   help="dataset size scale in (0, 1]; default auto")
    p.add_argument("--checkpoint-dir", metavar="DIR", required=True,
                   help="directory for versioned checkpoints")
    p.add_argument("--resume", action="store_true",
                   help="resume from the newest valid checkpoint in "
                        "--checkpoint-dir (starts fresh if none exists)")
    p.add_argument("--checkpoint-every", type=int, default=25, metavar="N",
                   help="checkpoint every N completed Phase III work-units "
                        "(default 25; 0 disables mid-phase checkpoints)")
    p.add_argument("--mem-budget", metavar="SIZE", default=None,
                   help="cap on intermediate-tuple memory (e.g. 64M, 1.5G); "
                        "the run falls back to chunked Phase II and grouped "
                        "Phase IV merges under the cap")
    p.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="simulated-time budget; the run curtails gracefully, "
                        "checkpoints, and exits 1 (resumable) when spent")
    p.add_argument("--backend", default=None, choices=sorted(BACKENDS),
                   help="kernel backend (numpy = the engine, the default; "
                        "reference = the scalar oracle). Fingerprinted: a "
                        "checkpoint written under one backend refuses to "
                        "resume under another")
    p.add_argument("--faults", metavar="SPEC", default=None,
                   help="fault-spec JSON file; the fault schedule (including "
                        "its RNG position) is checkpointed and resumes "
                        "exactly where the interrupted run left off")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the result matrix as MatrixMarket (byte-stable: "
                        "resumed and uninterrupted runs produce identical files)")
    p.add_argument("--export-metrics", metavar="PATH", default=None,
                   help="write the metrics snapshot as flat JSON")
    p.add_argument("--export-events", metavar="PATH", default=None,
                   help="record a repro-events/1 JSONL event log (stage "
                        "begin/end, checkpoints, resumes, faults) with the "
                        "job fingerprint as provenance; feed the directory "
                        "to `python -m repro report`)")
    p.add_argument("--run-label", metavar="LABEL", default=None,
                   help="configuration label stamped into the event log "
                        "(default: <matrix>@<scale>[+faults]); rows sharing "
                        "a label form one group for `repro report --compare`")
    p.add_argument("--sigkill-after-checkpoints", type=int, default=None,
                   metavar="N", help=argparse.SUPPRESS)


def run_job_command(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from repro.analysis.runners import experiment_setup
    from repro.jobs.budget import parse_size
    from repro.jobs.runner import JobRunner
    from repro.obs.events import event_log, host_info
    from repro.obs.export import export_metrics as write_metrics_snapshot
    from repro.obs.metrics import METRICS
    from repro.obs.spans import observed
    from repro.util.errors import (
        CheckpointCorrupt,
        InvalidInputError,
        ResourceExhausted,
    )

    def fail(exc: Exception, code: int) -> int:
        context = getattr(exc, "context", {})
        detail = f" [{json.dumps(context, sort_keys=True, default=str)}]" if context else ""
        print(f"error: {exc}{detail}", file=sys.stderr)
        return code

    def export_metrics() -> None:
        if args.export_metrics:
            write_metrics_snapshot(
                args.export_metrics, METRICS,
                context={"matrix": args.matrix, "scale": setup.scale},
            )
            print(f"metrics snapshot written to {args.export_metrics}")

    try:
        mem_budget = parse_size(args.mem_budget) if args.mem_budget else None
        fault_spec = None
        if args.faults:
            from repro.faults import load_fault_spec

            fault_spec = load_fault_spec(args.faults)
        setup = experiment_setup(args.matrix, scale=args.scale)
    except (InvalidInputError, FileNotFoundError, KeyError) as exc:
        return fail(exc, 2)

    runner = JobRunner(
        setup.matrix,
        setup.matrix,
        checkpoint_dir=args.checkpoint_dir,
        platform_factory=setup.platform,
        backend=args.backend,
        faults=fault_spec,
        mem_budget_bytes=mem_budget,
        deadline_s=args.deadline,
        checkpoint_every=args.checkpoint_every or None,
        matrix_name=args.matrix,
        scale=setup.scale,
        sigkill_after_checkpoints=args.sigkill_after_checkpoints,
        **setup.units,
    )
    recording = (
        event_log(
            args.export_events,
            run_id=f"run:{args.matrix}",
            label=args.run_label or (
                f"{args.matrix}@{setup.scale:g}"
                + ("+faults" if fault_spec is not None else "")
            ),
            provenance={
                "fingerprint": runner.fingerprint,
                "host": host_info(),
                "matrix": args.matrix,
                "scale": setup.scale,
                "backend": runner.backend,
                "faults": fault_spec.as_dict() if fault_spec else None,
                "deadline_s": args.deadline,
                "checkpoint_every": args.checkpoint_every or None,
            },
        )
        if args.export_events
        else nullcontext()
    )
    with observed():
        try:
            with recording:
                result = runner.run(resume=args.resume)
        except ResourceExhausted as exc:
            export_metrics()
            return fail(exc, 1)
        except (InvalidInputError, CheckpointCorrupt) as exc:
            return fail(exc, 2)
        print(result.summary())
        for key, value in result.details.items():
            print(f"  {key}: {value}")
        if args.out:
            from repro.formats.io import write_matrix_market

            write_matrix_market(
                result.matrix, args.out,
                comment=f"C = A x A for {args.matrix} via {result.algorithm}",
            )
            print(f"result matrix written to {args.out}")
        export_metrics()
    return 0
