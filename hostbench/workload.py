"""One benchmark run of one workload, in the process ``run.py`` starts.

Prints an environment stamp line, then one JSON object with ``correct``,
``attempted``, ``failed`` and ``identity``: the simulated fingerprints and
the products' digests, which every process of one seed must repeat.  With
``--trace 0`` it adds the raw end-to-end samples, measured with no wrapper
installed, which ``run.py`` pools over its processes: ``ops`` (one
``[wall_s, completed, executions]`` per timed operation), ``setups`` and
``peak_rss_mb``.  With ``--trace 1`` it adds ``metrics``, the per-layer
set, from a run that spends half its seconds untraced and half under
:class:`tracing.LayerTracer`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

from operands import self_product_operand, serving_pairs
from repro.core.hhcpu import HHCPU
from repro.resilience.config import ResilienceConfig
from repro.resilience.executor import ResilientExecutor
from repro.service.core import COMPLETED, TERMINAL, JobRequest, JobService, ServiceConfig
from tracing import LayerTracer

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("hub-expand", "powerlaw-long", "serve-resilient")

#: a process sets up at least SETUPS times and for SETUP_SECONDS
SETUPS = 3
SETUP_SECONDS = 2.0

#: serving load: tenants (name, priority) x closed-loop clients x requests
TENANTS = (("tenant-high", "high"), ("tenant-normal", "normal"), ("tenant-low", "low"))
CLIENTS = 4
REQUESTS = 64

#: the per-layer metric names and units, as ``BENCHMARK.json`` declares them
PER_LAYER_UNITS = {
    m["name"]: m["unit"]
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
}


class Tally:
    """Operations attempted and failed, with the first failure's reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)


def scipy_operand(m):
    return m.to_scipy().tocsr()


def scipy_product(a, b):
    ref = (scipy_operand(a) @ scipy_operand(b)).tocsr()
    ref.sort_indices()
    return ref


def matches_scipy(c, ref) -> bool:
    """The ``verify_against_scipy`` end-to-end contract: same structure,
    values ``allclose`` at rtol 1e-12 (HH-CPU sums quadrant partials in
    another order than scipy)."""
    return (
        np.array_equal(c.indptr, ref.indptr)
        and np.array_equal(c.indices, ref.indices)
        and np.allclose(c.data, ref.data, rtol=1e-12, atol=0.0)
    )


def digest(c) -> bytes:
    """Bit-for-bit identity of a CSR result."""
    h = hashlib.blake2b(digest_size=16)
    for arr in (c.indptr, c.indices, c.data):
        h.update(np.ascontiguousarray(arr).data)
    return h.digest()


def tail(samples: list[float]) -> float:
    """The highest order statistic with ten samples above it (the
    maximum when there are ten samples or fewer)."""
    ordered = sorted(samples)
    return ordered[len(ordered) - 11] if len(ordered) > 10 else ordered[-1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def scipy_seconds(a, b, reps: int = 5) -> float:
    sa, sb = scipy_operand(a), scipy_operand(b)
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        sa @ sb
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def git_rev(root: Path) -> str:
    """The checkout's commit read from ``.git``, or ``unknown``."""
    try:
        ref = (root / ".git" / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp() -> dict[str, object]:
    """What a cross-host or cross-policy comparison must match on."""
    try:
        thp = Path("/sys/kernel/mm/transparent_hugepage/enabled").read_text().strip()
    except OSError:
        thp = "unknown"
    return {
        "thp": thp,
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE", "unset"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_rev": git_rev(ROOT),
    }


# -- multiply workloads ------------------------------------------------------

class MultiplyRun:
    """``HHCPU().multiply(A, A)`` repeated on one seeded operand."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.tally = Tally()
        self.a = None
        self.warm = None
        self.digest = None
        self.fp = None

    def setup(self) -> float:
        self.a = self.warm = None
        gc.collect()
        start = time.perf_counter()
        self.a = self_product_operand(self.workload, self.seed)
        self.algo = HHCPU()
        self.warm = self.algo.multiply(self.a, self.a)
        return time.perf_counter() - start

    def prepare(self) -> None:
        """Checks the warm-up result against scipy and keeps only its
        digest and fingerprints, so the run holds one product at a time
        and ``peak_rss_mb`` is the multiply's, not the harness's."""
        if not matches_scipy(self.warm.matrix, scipy_product(self.a, self.a)):
            self.tally.fail("warm-up multiply differs from scipy")
        self.digest = digest(self.warm.matrix)
        self.fp = (self.warm.total_time, self.warm.details["thresholds"])
        self.warm = None

    def timed_op(self) -> tuple[float, int, int]:
        """Returns ``(wall_s, completed, executions)``."""
        self.tally.attempted += 1
        start = time.perf_counter()
        try:
            result = self.algo.multiply(self.a, self.a)
        except Exception as exc:  # noqa: BLE001 - counted as a failed multiply
            self.tally.fail(f"multiply raised {exc!r}")
            return time.perf_counter() - start, 0, 1
        wall = time.perf_counter() - start
        if digest(result.matrix) != self.digest and not matches_scipy(
            result.matrix, scipy_product(self.a, self.a)
        ):
            self.tally.fail("multiply differs from scipy")
        if (result.total_time, result.details["thresholds"]) != self.fp:
            self.tally.fail("simulated fingerprint changed between multiplies")
        return wall, 1, 1

    def fingerprints(self) -> dict[str, float]:
        return {
            "core.threshold_a": float(self.fp[1][0]),
            "hardware.sim_makespan_s": float(self.fp[0]),
            "service.executions": 0.0,
            "service.requests_per_execution": 0.0,
            "service.completed": 0.0,
            "service.refused": 0.0,
            "service.sim_p95_s": 0.0,
        }

    def identity(self) -> dict[str, object]:
        """What every process of one seed must reproduce exactly."""
        return {**self.fingerprints(), "digests": [self.digest.hex()]}

    def layer_extras(self, tracer: LayerTracer, traced: list[float]) -> dict[str, float]:
        return {"resilience.execute_s": 0.0, "service.self_s": 0.0}

    def scipy_s(self) -> float:
        return scipy_seconds(self.a, self.a)

    def tail_samples(self, untraced: list[float], tracer: LayerTracer) -> list[float]:
        return untraced


# -- serving workload --------------------------------------------------------

class ServeRun:
    """A closed-loop load on a resilient :class:`JobService`: each
    tenant's clients resubmit the moment their request finishes."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tally = Tally()
        self.config = ServiceConfig(workers=2, max_batch=8, resilience=ResilienceConfig())
        self.pairs = None
        self.refs = None
        self.warm = None
        #: the first full load: fingerprints and the later loads' yardstick
        self.full = None
        self._loads = 0

    def load(self, requests: int):
        """One closed-loop load; returns the drained service and job ids."""
        self._loads += 1
        ckpt = self.workdir / f"load{self._loads:04d}"
        service = JobService(
            self.config, executor=ResilientExecutor(self.config, workdir=ckpt)
        )
        reqs = [
            JobRequest(tenant=name, workload=f"pair{i}", priority=prio, a=a, b=b)
            for i, ((name, prio), (a, b)) in enumerate(zip(TENANTS, self.pairs))
        ]
        left = [requests] * len(reqs)
        outstanding: dict[str, int] = {}
        job_ids: list[str] = []

        def submit(i: int) -> None:
            left[i] -= 1
            job_id = service.submit(reqs[i])
            job_ids.append(job_id)
            if service.status(job_id) not in TERMINAL:
                outstanding[job_id] = i

        for i in range(len(reqs)):
            for _ in range(min(CLIENTS, requests)):
                submit(i)
        while outstanding:
            due = service.next_completion_time()
            if due is None:
                break
            service.advance_to(due)
            for job_id in [j for j in outstanding if service.status(j) in TERMINAL]:
                i = outstanding.pop(job_id)
                if left[i] > 0:
                    submit(i)
        service.drain()
        return service, job_ids

    def setup(self) -> float:
        self.pairs = self.warm = None
        gc.collect()
        start = time.perf_counter()
        self.pairs = serving_pairs(self.seed)
        self.warm = self.load(1)
        return time.perf_counter() - start

    def prepare(self) -> None:
        self.refs = [scipy_product(a, b) for a, b in self.pairs]
        self.check(*self.warm)

    def check(self, service: JobService, job_ids: list[str]) -> int:
        """Count the requests that did not complete, or whose result
        (each distinct one) differs from scipy's product of its operands;
        returns the number completed."""
        seen: set[int] = set()
        completed = 0
        for job_id in job_ids:
            record = service.jobs[job_id]
            if record.status != COMPLETED:
                self.tally.fail(f"request {job_id} ended {record.status}")
                continue
            completed += 1
            if id(record.result) in seen:
                continue
            seen.add(id(record.result))
            pair = int(record.request.workload.removeprefix("pair"))
            if not matches_scipy(record.result.matrix, self.refs[pair]):
                self.tally.fail(f"request {job_id} differs from scipy")
        return completed

    @staticmethod
    def _fingerprint(service: JobService) -> tuple:
        records = service.jobs.values()
        return (
            service.now,
            len({r.batch_id for r in records if r.batch_id is not None}),
            sorted(r.sim_latency_s for r in records if r.status == COMPLETED),
        )

    def timed_op(self) -> tuple[float, int, int]:
        """Returns ``(wall_s, completed, executions)`` of one load."""
        start = time.perf_counter()
        service, job_ids = self.load(REQUESTS)
        wall = time.perf_counter() - start
        for ckpt in self.workdir.iterdir():
            shutil.rmtree(ckpt)
        self.tally.attempted += len(job_ids)
        completed = self.check(service, job_ids)
        if self.full is None:
            self.full = service, job_ids
        elif self._fingerprint(service) != self._fingerprint(self.full[0]):
            self.tally.fail("simulated fingerprint changed between loads")
        return wall, completed, self._fingerprint(service)[1]

    def fingerprints(self) -> dict[str, float]:
        service, job_ids = self.full
        completed = [service.jobs[j] for j in job_ids if service.jobs[j].status == COMPLETED]
        head = next(r for r in completed if r.request.workload == "pair0")
        executions = self._fingerprint(service)[1]
        return {
            "core.threshold_a": float(head.result.details["thresholds"][0]),
            "hardware.sim_makespan_s": float(service.now),
            "service.executions": float(executions),
            "service.requests_per_execution": len(job_ids) / executions,
            "service.completed": float(len(completed)),
            "service.refused": float(len(job_ids) - len(completed)),
            "service.sim_p95_s": float(np.percentile([r.sim_latency_s for r in completed], 95)),
        }

    def identity(self) -> dict[str, object]:
        """What every process of one seed must reproduce exactly: the
        fingerprints and the digest of each pair's served result."""
        service, job_ids = self.full
        digests: dict[str, str] = {}
        for job_id in job_ids:
            record = service.jobs[job_id]
            if record.status == COMPLETED:
                digests.setdefault(record.request.workload, digest(record.result.matrix).hex())
        return {**self.fingerprints(), "digests": [digests[k] for k in sorted(digests)]}

    def layer_extras(self, tracer: LayerTracer, traced: list[float]) -> dict[str, float]:
        execute = tracer.total["root"] / len(traced)
        return {
            "resilience.execute_s": execute,
            "service.self_s": statistics.fmean(traced) - execute,
        }

    def scipy_s(self) -> float:
        """scipy's time for the products one load executes."""
        batches = {
            r.batch_id: int(r.request.workload.removeprefix("pair"))
            for r in self.full[0].jobs.values() if r.batch_id is not None
        }
        per_pair = [scipy_seconds(a, b) for a, b in self.pairs]
        return sum(per_pair[pair] for pair in batches.values())

    def tail_samples(self, untraced: list[float], tracer: LayerTracer) -> list[float]:
        """One sample per execution: a load has too few loads for a tail."""
        return tracer.root_samples


# -- the run -----------------------------------------------------------------

def measure(job, seconds: float) -> list[tuple[float, int, int]]:
    """Repeat the timed operation for ``seconds`` of wall time (at least
    twice), collecting garbage before each one outside the timing."""
    ops: list[tuple[float, int, int]] = []
    deadline = time.perf_counter() + seconds
    while len(ops) < 2 or time.perf_counter() < deadline:
        gc.collect()
        ops.append(job.timed_op())
    return ops


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    if workload == "serve-resilient":
        job = ServeRun(seed, workdir)
    else:
        job = MultiplyRun(workload, seed)
    setups: list[float] = []
    deadline = time.perf_counter() + SETUP_SECONDS
    while len(setups) < SETUPS or time.perf_counter() < deadline:
        setups.append(job.setup())
    job.prepare()

    if not trace:
        doc = {
            "ops": measure(job, seconds),
            "setups": setups,
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        untraced = [op[0] for op in measure(job, seconds / 2)]
        with LayerTracer() as tracer:
            traced = [op[0] for op in measure(job, seconds / 2)]
        n = len(traced)
        scipy_s = job.scipy_s()
        values = {
            **tracer.layer_seconds(n),
            **tracer.counts(n),
            **job.fingerprints(),
            **job.layer_extras(tracer, traced),
            "reference.scipy_s": scipy_s,
            "reference.x_scipy": statistics.median(untraced) / scipy_s,
            "harness.multiply_tail_s": tail(job.tail_samples(untraced, tracer)),
            "harness.samples": float(len(job.tail_samples(untraced, tracer))),
            "harness.trace_overhead_frac": (
                statistics.median(traced) / statistics.median(untraced) - 1.0
            ),
        }
        doc = {"metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }}
    for reason in job.tally.reasons:
        print(f"hostbench: {workload}: {reason}", file=sys.stderr)
    return {
        "correct": job.tally.failed == 0,
        "attempted": job.tally.attempted,
        "failed": job.tally.failed,
        "identity": job.identity(),
        **doc,
    }


@contextlib.contextmanager
def unflushed_writes():
    """Make ``os.fsync`` a no-op for the block.

    The checkpoints of ``serve-resilient`` are still serialised, digested
    and renamed into place, but not flushed: the checkout sits on a disk
    shared with the rest of the host, and its flush latency would read as
    noise in ``requests_per_s``.
    """
    real = os.fsync
    os.fsync = lambda fd: None
    try:
        yield
    finally:
        os.fsync = real


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, required=True)
    args = p.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.workdir) as scratch, unflushed_writes():
        doc = run(args.workload, args.seed, args.seconds, bool(args.trace), Path(scratch))
    print(json.dumps({"env": env_stamp()}))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
