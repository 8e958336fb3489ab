"""Tests for the heterogeneous runtime: partition, workqueue, scheduler,
executor."""

import numpy as np
import pytest

from repro.costmodel.context import ProductContext
from repro.formats import CSRMatrix
from repro.hardware.platform import default_platform
from repro.hetero import (
    DoubleEndedWorkQueue,
    WorkUnit,
    chunk_rows,
    classify_rows,
    partition_rows,
    resolve_kernel,
    run_product,
    run_workqueue_phase,
    threshold_candidates,
)
from repro.kernels import esc_multiply
from repro.util.errors import InvalidInputError, SchedulingError


class TestPartition:
    def test_classify(self, small_scalefree):
        rc = classify_rows(small_scalefree, 5)
        sizes = small_scalefree.row_nnz()
        np.testing.assert_array_equal(rc.high_mask, sizes > 5)
        assert rc.n_high + rc.n_low == small_scalefree.nrows

    def test_classify_negative_threshold(self, small_scalefree):
        with pytest.raises(ValueError):
            classify_rows(small_scalefree, -1)

    def test_threshold_zero_all_high(self, small_scalefree):
        rc = classify_rows(small_scalefree, 0)
        # rows with at least one entry are high
        assert rc.n_high == int((small_scalefree.row_nnz() > 0).sum())

    def test_threshold_max_all_low(self, small_scalefree):
        t = int(small_scalefree.row_nnz().max())
        rc = classify_rows(small_scalefree, t)
        assert rc.n_high == 0

    def test_partition_nnz_split(self, small_scalefree):
        p = partition_rows(small_scalefree, small_scalefree, 4, 6)
        assert p.a_high_nnz + p.a_low_nnz == small_scalefree.nnz
        assert p.b_high_nnz + p.b_low_nnz == small_scalefree.nnz
        assert p.a.threshold == 4 and p.b.threshold == 6

    def test_summary_keys(self, small_scalefree):
        p = partition_rows(small_scalefree, small_scalefree, 3, 3)
        s = p.summary()
        assert {"t_A", "t_B", "A_H_rows", "B_L_nnz"} <= set(s)

    def test_candidates_include_extremes(self, small_scalefree):
        cands = threshold_candidates(small_scalefree)
        assert 0 in cands
        assert int(small_scalefree.row_nnz().max()) in cands
        assert np.all(np.diff(cands) > 0)

    def test_candidates_empty_matrix(self):
        cands = threshold_candidates(CSRMatrix.empty((5, 5)))
        assert list(cands) == [0]


class TestWorkqueue:
    def test_build_order(self):
        q = DoubleEndedWorkQueue.build(
            np.arange(25), np.arange(100, 130), cpu_rows=10, gpu_rows=15
        )
        # front: 3 AL_BH units; back: 2 AH_BL units reversed
        assert [u.product for u in q.units] == ["AL_BH"] * 3 + ["AH_BL"] * 2
        first_gpu = q.pop_back()
        assert first_gpu.product == "AH_BL"
        assert first_gpu.rows[0] == 100  # first chunk of A_H

    def test_front_back_meet(self):
        q = DoubleEndedWorkQueue.build(np.arange(10), np.arange(10),
                                       cpu_rows=3, gpu_rows=3)
        n = 0
        while q.has_work():
            (q.pop_front() if n % 2 else q.pop_back())
            n += 1
        q.check_conservation()

    def test_pop_empty_raises(self):
        q = DoubleEndedWorkQueue(units=[])
        with pytest.raises(SchedulingError):
            q.pop_front()
        with pytest.raises(SchedulingError):
            q.pop_back()

    def test_batch_merges_same_product(self):
        q = DoubleEndedWorkQueue.build(np.arange(50), np.arange(0),
                                       cpu_rows=10, gpu_rows=100)
        unit = q.pop_back_batch(35)
        assert unit.nrows == 30  # 3 x 10-row units merged
        q.check_conservation() if not q.has_work() else None

    def test_batch_stops_at_product_boundary(self):
        q = DoubleEndedWorkQueue.build(np.arange(10), np.arange(10),
                                       cpu_rows=5, gpu_rows=5)
        unit = q.pop_back_batch(100)
        assert unit.product == "AH_BL"
        assert unit.nrows == 10  # both AH_BL units, none of AL_BH

    def test_batch_invalid_size(self):
        q = DoubleEndedWorkQueue.build(np.arange(5), np.arange(5))
        with pytest.raises(ValueError):
            q.pop_back_batch(0)

    def test_conservation_detects_leftovers(self):
        q = DoubleEndedWorkQueue.build(np.arange(10), np.arange(0), cpu_rows=5)
        q.pop_front()
        with pytest.raises(SchedulingError):
            q.check_conservation()

    def test_chunk_rows_validation(self):
        with pytest.raises(ValueError):
            chunk_rows(np.arange(5), 0, "x")

    def test_empty_product_tag_rejected(self):
        with pytest.raises(ValueError):
            WorkUnit("", np.arange(3), 0)


class TestScheduler:
    def _drain(self, q, cpu_cost, gpu_cost, gpu_batch=None):
        pf = default_platform()
        taken = {"cpu": [], "gpu": []}

        def execute(kind, unit):
            device = pf.cpu if kind == "cpu" else pf.gpu
            device.busy("III", f"{kind}", cpu_cost if kind == "cpu" else gpu_cost)
            taken[kind].append(unit)
            from repro.formats import COOMatrix

            return COOMatrix.empty((1, 1))

        outcome = run_workqueue_phase(pf, q, execute, gpu_batch_rows=gpu_batch)
        return pf, taken, outcome

    def test_both_devices_participate(self):
        q = DoubleEndedWorkQueue.build(np.arange(100), np.arange(100),
                                       cpu_rows=10, gpu_rows=10)
        pf, taken, outcome = self._drain(q, 1.0, 1.0)
        assert outcome.cpu_units > 0 and outcome.gpu_units > 0
        assert outcome.cpu_units + outcome.gpu_units == 20

    def test_faster_device_takes_more(self):
        q = DoubleEndedWorkQueue.build(np.arange(100), np.arange(100),
                                       cpu_rows=10, gpu_rows=10)
        _, _, outcome = self._drain(q, 4.0, 1.0)
        assert outcome.gpu_units > outcome.cpu_units

    def test_stealing_counted(self):
        # only CPU-end units exist; the GPU must steal all it takes
        q = DoubleEndedWorkQueue.build(np.arange(100), np.arange(0), cpu_rows=10)
        _, _, outcome = self._drain(q, 1.0, 1.0)
        assert outcome.gpu_stolen == outcome.gpu_units

    def test_makespans_balanced(self):
        q = DoubleEndedWorkQueue.build(np.arange(200), np.arange(200),
                                       cpu_rows=10, gpu_rows=10)
        pf, _, _ = self._drain(q, 1.0, 1.0)
        assert abs(pf.cpu.clock - pf.gpu.clock) <= 1.0  # within one unit

    def test_empty_queue_noop(self):
        pf, _, outcome = self._drain(DoubleEndedWorkQueue(units=[]), 1.0, 1.0)
        assert outcome.cpu_units == outcome.gpu_units == 0


class TestExecutor:
    def test_resolve_kernel(self):
        assert resolve_kernel("esc") is esc_multiply
        assert resolve_kernel(esc_multiply) is esc_multiply
        with pytest.raises(InvalidInputError) as err:
            resolve_kernel("nope")
        assert isinstance(err.value, ValueError)
        assert err.value.context["field"] == "kernel"

    def test_run_product_charges_device(self, small_scalefree, small_platform):
        pf = small_platform
        pf.reset()
        ctx = ProductContext(1 << 20, small_scalefree.ncols)
        run = run_product(pf.cpu, "II", "t", small_scalefree, small_scalefree, ctx)
        assert pf.cpu.clock == pytest.approx(run.duration)
        assert run.tuples == run.part.nnz
        assert run.end > run.start

    def test_extra_overhead_added(self, small_scalefree, small_platform):
        pf = small_platform
        ctx = ProductContext(1 << 20, small_scalefree.ncols)
        pf.reset()
        base = run_product(pf.cpu, "II", "t", small_scalefree, small_scalefree, ctx).duration
        pf.reset()
        extra = run_product(pf.cpu, "II", "t", small_scalefree, small_scalefree, ctx,
                            extra_overhead=0.5).duration
        assert extra == pytest.approx(base + 0.5)
