"""Tests of the host-time benchmark itself.

    python3 -m pytest hostbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import operands  # noqa: E402
import run as runner  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402
from repro.core.hhcpu import HHCPU  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LAYER_TIMES = (
    "formats.canonical_s", "core.phase1_sweep_s", "hetero.partition_s",
    "costmodel.contexts_s", "kernels.phase2_s", "kernels.phase3_s",
    "hetero.scheduler_self_s", "kernels.merge_s", "jobs.checkpoint_s",
    "resilience.verify_s", "core.unattributed_s",
)
FINGERPRINTS = (
    "core.threshold_a", "hardware.sim_makespan_s", "service.executions", "service.sim_p95_s",
)

_runs: dict[tuple, dict] = {}


def bench(name: str, trace: bool, seed: int = 1, tmp: Path | None = None) -> dict:
    """One in-process run of the shortest kind (two timed operations),
    with its metrics as ``run.py`` reports them."""
    key = (name, trace, seed)
    if key not in _runs:
        tmp = Path(tempfile.mkdtemp(dir=tmp))
        try:
            doc = workload.run(name, seed, 0.0, trace, tmp)
        finally:
            shutil.rmtree(tmp)
        if not trace:
            doc["metrics"] = runner.end_to_end([doc, doc])
        _runs[key] = doc
    return _runs[key]


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    doc = bench(name, trace)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(math.isfinite(v["value"]) for v in doc["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_seed_changes_operands_not_metric_names():
    a1 = operands.self_product_operand("hub-expand", 1)
    a2 = operands.self_product_operand("hub-expand", 2)
    again = operands.self_product_operand("hub-expand", 1)
    assert not np.array_equal(a1.indices[:1000], a2.indices[:1000])
    assert np.array_equal(a1.indices, again.indices) and np.array_equal(a1.data, again.data)
    pairs1, pairs2 = operands.serving_pairs(1), operands.serving_pairs(2)
    assert all(not np.array_equal(p[0].data, q[0].data) for p, q in zip(pairs1, pairs2))
    assert list(bench("hub-expand", False, 1)["metrics"]) == list(
        bench("hub-expand", False, 2)["metrics"]
    )


def products(a, b) -> int:
    """Intermediate products of ``a @ b``."""
    return int(b.row_nnz()[a.indices].sum())


@pytest.mark.parametrize("name", ["hub-expand", "powerlaw-long"])
def test_self_product_work_does_not_depend_on_the_seed(name):
    # seed-to-seed spread in the work would read as run-to-run noise
    work = []
    for seed in range(4):
        a = operands.self_product_operand(name, seed)
        work.append(products(a, a))
    assert max(work) / min(work) < 1.02


def test_serving_work_does_not_depend_on_the_seed():
    work = [
        [(products(a, b), a.nnz, b.nnz) for a, b in operands.serving_pairs(seed)]
        for seed in range(4)
    ]
    assert all(w == work[0] for w in work)
    for (a1, b1), (a2, b2) in zip(operands.serving_pairs(1), operands.serving_pairs(2)):
        assert not np.array_equal(a1.indices, a2.indices)
        assert (a1.to_scipy() @ b1.to_scipy()).nnz == (a2.to_scipy() @ b2.to_scipy()).nnz


def test_traced_layer_times_sum_to_the_traced_multiply():
    a = operands.scale_free_matrix(
        3_000, alpha=2.1, mean_nnz=8.0, hub_bias=0.5, rng=np.random.default_rng(3)
    )
    with tracing.LayerTracer() as tracer:
        for _ in range(2):
            HHCPU(cpu_rows=200, gpu_rows=400).multiply(a, a)
    parts = tracer.layer_seconds(2)
    assert tracer.calls["root"] == 2 and tracer.calls["kernels.phase3"] > 2
    assert sum(parts.values()) == pytest.approx(tracer.total["root"] / 2, rel=1e-9)
    assert min(parts.values()) >= 0.0 and parts["core.unattributed_s"] > 0.0


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_reports_a_closed_split(name):
    m = {k: v["value"] for k, v in bench(name, True)["metrics"].items()}
    layers = sum(m[k] for k in LAYER_TIMES)
    assert m["core.unattributed_s"] >= 0.0
    if name == "serve-resilient":
        assert layers == pytest.approx(m["resilience.execute_s"], rel=1e-9)
        assert m["jobs.checkpoints"] > 0 and m["resilience.verify_s"] > 0
        assert m["service.completed"] == 3 * 64 and m["service.refused"] == 0
    else:
        assert m["jobs.checkpoint_s"] == m["resilience.verify_s"] == 0.0
        assert m["kernels.tuples_in"] >= m["kernels.masters"] > 0


def test_wrappers_are_restored_after_the_traced_run():
    originals = [getattr(owner, attr) for owner, attr, _ in tracing.LAYERS]
    with pytest.raises(RuntimeError):
        with tracing.LayerTracer():
            assert HHCPU.multiply is not originals[0]
            raise RuntimeError("boom")
    assert all(getattr(owner, attr) is fn
               for (owner, attr, _), fn in zip(tracing.LAYERS, originals))
    bench("hub-expand", True)
    assert all(getattr(owner, attr) is fn
               for (owner, attr, _), fn in zip(tracing.LAYERS, originals))
    fsync = os.fsync
    with pytest.raises(RuntimeError):
        with workload.unflushed_writes():
            assert os.fsync is not fsync
            raise RuntimeError("boom")
    assert os.fsync is fsync


@pytest.mark.parametrize("name", WORKLOADS)
def test_fingerprints_repeat_for_one_seed(name, tmp_path):
    first = bench(name, True)
    _runs.pop((name, True, 1))
    second = bench(name, True, tmp=tmp_path)
    for key in FINGERPRINTS:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key
        assert first["identity"][key] == first["metrics"][key]["value"], key
    assert first["identity"] == second["identity"]


def test_a_wrong_product_fails_the_run(monkeypatch, tmp_path):
    armed = []
    real_prepare = workload.MultiplyRun.prepare

    def prepare(self):
        real_prepare(self)
        armed.append(True)

    class Corrupting(HHCPU):
        def multiply(self, a, b):
            result = super().multiply(a, b)
            if armed:
                result.matrix.data = result.matrix.data * 1.001
            return result

    monkeypatch.setattr(workload.MultiplyRun, "prepare", prepare)
    monkeypatch.setattr(workload, "HHCPU", Corrupting)
    doc = workload.run("hub-expand", 1, 0.0, False, tmp_path)
    assert not doc["correct"] and doc["failed"] == doc["attempted"] == 2


def test_processes_that_disagree_fail_the_run():
    doc = bench("hub-expand", False)
    other = json.loads(json.dumps(doc))
    other["identity"]["hardware.sim_makespan_s"] *= 1.5
    agreed = runner.pooled([doc, doc], trace=False)
    assert agreed["correct"] and agreed["failed"] == 0
    split = runner.pooled([doc, other, doc], trace=False)
    assert not split["correct"] and split["failed"] == 1
    assert split["attempted"] == 3 * doc["attempted"]


def test_cli_prints_the_stamp_then_the_result():
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "hub-expand", "--seed", "5",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    stamp, result = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    assert set(stamp["env"]) == {
        "thp", "numpy_madvise_hugepage", "nproc", "python", "numpy", "scipy", "git_rev",
    }
    assert stamp["env"]["numpy_madvise_hugepage"] == SPEC["command"][-1]
    assert set(FINGERPRINTS) <= set(stamp["identity"]) and stamp["identity"]["digests"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert not (ROOT / ".hostbench-work").exists()


def test_cli_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "hub-expand", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
