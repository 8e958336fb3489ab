"""Ablation benches for the design choices DESIGN.md §5 calls out:

- HiPC2012 with an *oracle* static split (perfect workload knowledge)
  vs the faithful blind split — how much of HH-CPU's advantage is
  information, how much is architecture mapping;
- Phase III work-unit size sensitivity (the paper tuned cpuRows = 1000,
  gpuRows = 10 000 empirically);
- the host engine vs the scalar oracle (identical results, different
  host cost);
- threshold selection: analytic estimator vs exhaustive real sweep;
- heterogeneous csrmm (§VI) vs single-device csrmm.
"""

import time  # repro: noqa[DET001] — the ablation times real host kernels

import numpy as np
import pytest

from repro.analysis import experiment_setup, format_table, run_baseline, run_hhcpu
from repro.baselines import HiPC2012
from repro.core import HHCPU
from repro.core.hhcsrmm import HHCSRMM
from repro.hardware.platform import platform_for_scale
from repro.kernels import esc_multiply


def test_ablation_oracle_static_split(benchmark, show):
    """Giving HiPC2012 perfect cost-model knowledge narrows, but does
    not erase, HH-CPU's advantage on scale-free inputs."""
    def run():
        rows = []
        for name in ("webbase-1M", "email-Enron", "wiki-Vote"):
            s = experiment_setup(name)
            hh = run_hhcpu(s)
            blind = run_baseline(s, "hipc2012")
            oracle = HiPC2012(s.platform(), oracle_split=True).multiply(s.matrix, s.matrix)
            rows.append([name, hh.speedup_over(blind), hh.speedup_over(oracle)])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    show("Ablation: blind vs oracle static split",
         format_table(["matrix", "HH vs blind", "HH vs oracle"], rows))
    for name, vs_blind, vs_oracle in rows:
        assert vs_blind >= vs_oracle * 0.8, name  # oracle is a stronger baseline


def test_ablation_workunit_sizes(benchmark, show):
    """Work-unit size sweep around the paper's tuned values."""
    s = experiment_setup("web-Google")

    def run():
        rows = []
        for cpu_rows, gpu_rows in ((50, 500), (200, 2000), (800, 8000)):
            res = HHCPU(s.platform(), cpu_rows=cpu_rows, gpu_rows=gpu_rows,
                        threshold_a=6, threshold_b=6).multiply(s.matrix, s.matrix)
            rows.append([cpu_rows, gpu_rows, res.total_time * 1e3])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    show("Ablation: Phase III work-unit sizes (web-Google)",
         format_table(["cpuRows", "gpuRows", "total(ms)"], rows))
    times = [r[2] for r in rows]
    assert max(times) < 3.0 * min(times), "unit size should matter moderately"


def test_ablation_kernel_host_cost(benchmark, show):
    """The host engine and the scalar oracle produce bit-identical
    results; the engine vectorises (this is host wall-clock, not
    simulated time)."""
    s = experiment_setup("wiki-Vote", scale=0.2)
    m = s.matrix

    def engine():
        return esc_multiply(m, m)

    out_engine = benchmark(engine)
    t0 = time.perf_counter()
    out_oracle = esc_multiply(m, m, backend="reference")
    oracle_wall = time.perf_counter() - t0
    for field in ("row", "col", "data"):
        assert np.array_equal(
            getattr(out_engine.result, field), getattr(out_oracle.result, field)
        )
    show("Ablation: kernels", f"engine vs scalar oracle identical on {m.nrows} "
         f"rows (oracle host wall: {oracle_wall*1e3:.1f} ms)")


def test_ablation_threshold_estimator_vs_sweep(benchmark, show):
    """The analytic estimator's pick lands within 2x of the best real
    fixed threshold on a mid-size twin (it exists to avoid the sweep)."""
    s = experiment_setup("ca-CondMat", scale=0.2)
    auto = benchmark.pedantic(lambda: run_hhcpu(s), rounds=1, iterations=1)
    from repro.hetero.partition import threshold_candidates

    best = min(
        HHCPU(s.platform(), threshold_a=int(t), threshold_b=int(t),
              **s.units).multiply(s.matrix, s.matrix).total_time
        for t in threshold_candidates(s.matrix, max_candidates=8)
    )
    show("Ablation: threshold estimator",
         f"auto={auto.total_time*1e3:.3f} ms best-fixed={best*1e3:.3f} ms "
         f"(ratio {auto.total_time/best:.2f})")
    assert auto.total_time <= 2.0 * best


def test_ablation_csrmm_split(benchmark, show):
    """§VI extension: the heterogeneous csrmm split beats pinning the
    whole product on the slower single device."""
    from repro.scalefree import powerlaw_matrix

    a = powerlaw_matrix(8_000, alpha=2.3, target_nnz=48_000, hub_bias=0.5, rng=2)
    d = np.random.default_rng(0).random((8_000, 16))

    def run():
        pf = platform_for_scale(0.01)
        _, split = HHCSRMM(pf).multiply(a, d)
        pf2 = platform_for_scale(0.01)
        _, all_cpu = HHCSRMM(pf2, threshold=0).multiply(a, d)
        pf3 = platform_for_scale(0.01)
        _, all_gpu = HHCSRMM(pf3, threshold=int(a.row_nnz().max())).multiply(a, d)
        return split, all_cpu, all_gpu

    split, all_cpu, all_gpu = benchmark.pedantic(run, rounds=1, iterations=1)
    show("Ablation: csrmm split",
         f"split={split.total_time*1e3:.3f} ms, all-CPU={all_cpu.total_time*1e3:.3f} ms, "
         f"all-GPU={all_gpu.total_time*1e3:.3f} ms")
    assert split.total_time <= max(all_cpu.total_time, all_gpu.total_time)
