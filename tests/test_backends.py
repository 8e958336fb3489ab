"""Tests for the kernel backends (:data:`repro.kernels.BACKENDS`).

Covers: backend-name resolution and validation, refusal of the removed
selection knobs, the Hypothesis cross-backend equivalence suite (every
backend scipy-equal on every kernel label, and bit-identical to each
other), the engine's hub-row split (every row takes exactly one path,
whatever the thresholds), the ``backend_selected`` event, and the
cross-backend checkpoint resume refusal.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
import hypothesis.extra.numpy as hnp

from repro.core import HHCPU
from repro.formats import CSRMatrix
from repro.hardware.platform import platform_for_scale
from repro.jobs import JobRunner
from repro.kernels import (
    BACKENDS,
    DEFAULT_BACKEND,
    adaptive_multiply,
    esc_multiply,
    hash_multiply,
    reference_multiply,
    resolve_backend,
    spa_multiply,
)
from repro.kernels import esc as engine
from repro.obs.events import read_events, event_log
from repro.scalefree import powerlaw_matrix
from repro.service import ServiceConfig
from repro.util.errors import InvalidInputError, ServiceError

BACKEND_NAMES = sorted(BACKENDS)
KERNELS = [("hash", hash_multiply), ("spa", spa_multiply), ("esc", esc_multiply)]


def pair(m, p, n, da, db, sa, sb):
    A = sp.random(m, p, density=da, random_state=sa, format="csr")
    B = sp.random(p, n, density=db, random_state=sb, format="csr")
    return CSRMatrix.from_scipy(A), CSRMatrix.from_scipy(B), A, B


def assert_bit_identical(got, want):
    g = got.tocsr() if hasattr(got, "tocsr") else got
    w = want.tocsr() if hasattr(want, "tocsr") else want
    np.testing.assert_array_equal(g.indptr, w.indptr)
    np.testing.assert_array_equal(g.indices, w.indices)
    assert g.data.tobytes() == w.data.tobytes()


def thresholds(dense_fill=engine.DENSE_FILL, dense_min_work=engine.DENSE_MIN_WORK,
               cells_budget=engine.CELLS_BUDGET):
    """Temporarily move the engine's hub-row thresholds."""
    return mock.patch.multiple(
        engine, DENSE_FILL=dense_fill, DENSE_MIN_WORK=dense_min_work,
        CELLS_BUDGET=cells_budget,
    )


# -- backend names ----------------------------------------------------------

class TestRegistry:
    def test_two_backends_registered(self):
        assert BACKEND_NAMES == ["numpy", "reference"]
        assert BACKENDS["numpy"] is engine.esc_multiply
        assert BACKENDS["reference"] is reference_multiply

    def test_default_resolution(self):
        assert resolve_backend(None) == DEFAULT_BACKEND == "numpy"

    def test_spec_resolution(self):
        assert resolve_backend("reference") == "reference"
        assert resolve_backend("numpy") == "numpy"

    def test_unknown_backend_refused(self):
        for name in ("cuda", "numba", ""):
            with pytest.raises(InvalidInputError, match="unknown kernel backend"):
                resolve_backend(name)

    def test_bad_selector_type_refused(self):
        with pytest.raises(InvalidInputError, match="backend must be"):
            resolve_backend(42)

    def test_ordered_flags(self):
        # both backends accumulate in k-major stream order: bit-identical
        a, b, *_ = pair(40, 30, 35, 0.2, 0.2, 11, 12)
        assert_bit_identical(
            esc_multiply(a, b, backend="reference").result,
            esc_multiply(a, b, backend="numpy").result,
        )


class TestBackendSpec:
    """A run's kernel selection is a backend name plus a kernel label."""

    def test_round_trip(self):
        cfg = ServiceConfig(backend="reference", kernel="spa")
        again = ServiceConfig.from_dict(cfg.as_dict())
        assert (again.backend, again.kernel) == ("reference", "spa")

    def test_unknown_field_refused(self):
        # the regime knobs are gone: a config still carrying one is refused
        doc = ServiceConfig().as_dict()
        doc["short_max"] = 32
        with pytest.raises(ServiceError, match="short_max"):
            ServiceConfig.from_dict(doc)
        with pytest.raises(TypeError):
            HHCPU(dense_fill=0.05)

    @pytest.mark.parametrize("kwargs", [
        {"backend": ""},
        {"backend": "numba"},
        {"backend": 3},
        {"kernel": "gustavson"},
        {"kernel": 7},
    ])
    def test_invalid_values_refused(self, kwargs):
        with pytest.raises(InvalidInputError):
            HHCPU(**kwargs)

    def test_resolve_spec_forms(self):
        assert HHCPU().backend == "numpy"
        assert HHCPU(backend="reference").backend == "reference"
        with pytest.raises(InvalidInputError):
            resolve_backend(3.14)


# -- cross-backend equivalence ----------------------------------------------

@st.composite
def operand_pair(draw, max_dim=9):
    m = draw(st.integers(1, max_dim))
    p = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    elems = st.sampled_from([0.0, 0.0, 0.0, 1.0, -1.0, 2.0, 0.5])
    a = draw(hnp.arrays(np.float64, (m, p), elements=elems))
    b = draw(hnp.arrays(np.float64, (p, n), elements=elems))
    return CSRMatrix.from_dense(a), CSRMatrix.from_dense(b)


@pytest.mark.parametrize("kernel_name,kernel", KERNELS)
class TestCrossBackendEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(ab=operand_pair())
    def test_all_backend_pairs_scipy_equal(self, kernel_name, kernel, ab):
        a, b = ab
        want = (a.to_scipy() @ b.to_scipy()).toarray()
        outs = {name: kernel(a, b, backend=name) for name in BACKEND_NAMES}
        for name, out in outs.items():
            np.testing.assert_allclose(
                out.result.todense(), want, rtol=1e-12, atol=0.0,
                err_msg=f"{kernel_name} under backend {name}",
            )

    @settings(max_examples=25, deadline=None)
    @given(ab=operand_pair())
    def test_bit_identical_where_ordered(self, kernel_name, kernel, ab):
        a, b = ab
        baseline = kernel(a, b, backend=BACKEND_NAMES[0]).result
        for name in BACKEND_NAMES[1:]:
            assert_bit_identical(kernel(a, b, backend=name).result, baseline)

    def test_masked_and_row_restricted(self, kernel_name, kernel):
        a, b, A, B = pair(20, 15, 18, 0.25, 0.25, 3, 4)
        rows = np.array([0, 3, 7, 19])
        mask = np.arange(15) % 2 == 0
        Bm = B.toarray().copy()
        Bm[~mask] = 0.0
        want = np.zeros((20, 18))
        want[rows] = A.toarray()[rows] @ Bm
        for name in BACKEND_NAMES:
            out = kernel(a, b, a_rows=rows, b_row_mask=mask, backend=name)
            np.testing.assert_allclose(
                out.result.todense(), want, rtol=1e-12, atol=0.0,
            )


class TestAdaptive:
    @settings(max_examples=25, deadline=None)
    @given(ab=operand_pair())
    def test_scipy_equal(self, ab):
        a, b = ab
        want = (a.to_scipy() @ b.to_scipy()).toarray()
        out = adaptive_multiply(a, b)
        np.testing.assert_allclose(
            out.result.todense(), want, rtol=1e-12, atol=0.0,
        )

    def test_bit_identical_to_ordered_backend(self):
        a, b, *_ = pair(60, 50, 55, 0.15, 0.15, 21, 22)
        want = hash_multiply(a, b, backend="reference").result
        got = adaptive_multiply(a, b, backend="numpy").result
        assert_bit_identical(got, want)

    def test_custom_thresholds_still_exact(self):
        a, b, *_ = pair(40, 40, 40, 0.2, 0.2, 31, 32)
        want = reference_multiply(a, b).result
        for moved in (
            dict(dense_fill=1.0, dense_min_work=10_000),  # no hub rows
            dict(dense_fill=0.001, dense_min_work=0),     # every row a hub
            dict(dense_fill=0.001, dense_min_work=10),    # a mix
            dict(dense_min_work=0, cells_budget=64),      # one row per block
        ):
            with thresholds(**moved):
                got = adaptive_multiply(a, b).result
            assert_bit_identical(got, want)

    @settings(max_examples=60, deadline=None)
    @given(
        ab=operand_pair(),
        dense_min_work=st.integers(0, 12),
        cells_budget=st.integers(1, 40),
        data=st.data(),
    )
    def test_partition_is_exactly_one_regime_per_row(
        self, ab, dense_min_work, cells_budget, data
    ):
        a, b = ab
        rows = data.draw(st.lists(
            st.integers(0, a.nrows - 1), unique=True, max_size=a.nrows,
        ).map(lambda xs: np.asarray(sorted(xs), dtype=np.int64)))
        with thresholds(dense_min_work=dense_min_work, cells_budget=cells_budget):
            got = esc_multiply(a, b, a_rows=rows).result
        # each row's tuples form one (row, col)-sorted run: a row that
        # took both paths, or neither, would repeat or lose keys
        keys = got.row * max(b.ncols, 1) + got.col
        assert np.all(np.diff(keys) > 0)
        assert set(got.row.tolist()) <= set(rows.tolist())
        assert_bit_identical(got, reference_multiply(a, b, a_rows=rows).result)


# -- backend_selected event -------------------------------------------------

class TestBackendSelectedEvent:
    def test_hhcpu_begin_emits_backend_selected(self, tmp_path):
        matrix = powerlaw_matrix(
            200, alpha=2.5, target_nnz=1_000, hub_bias=0.5, rng=5
        )
        path = tmp_path / "events.jsonl"
        with event_log(path, run_id="be-test"):
            HHCPU(platform_for_scale(0.001), backend="reference").multiply(
                matrix, matrix
            )
        _, records = read_events(path)
        selected = [r for r in records if r.get("event") == "backend_selected"]
        assert len(selected) == 1
        assert selected[0]["backend"] == "reference"
        assert selected[0]["impl"] == "reference"
        assert selected[0]["ordered"] is True
        assert selected[0]["available"] is True
        assert selected[0]["fallback_reason"] is None


# -- cross-backend checkpoint refusal ---------------------------------------

class TestCheckpointRefusal:
    UNITS = {"cpu_rows": 40, "gpu_rows": 120}

    def _runner(self, matrix, ckdir, **kwargs):
        return JobRunner(
            matrix, matrix,
            checkpoint_dir=ckdir,
            platform_factory=lambda: platform_for_scale(0.001),
            checkpoint_every=5,
            **self.UNITS,
            **kwargs,
        )

    def test_resume_under_other_backend_refused(self, tmp_path):
        matrix = powerlaw_matrix(
            400, alpha=2.5, target_nnz=2_000, hub_bias=0.5, rng=17
        )
        ckdir = tmp_path / "ck"
        self._runner(matrix, ckdir, backend="numpy").run()
        drifted = self._runner(matrix, ckdir, backend="reference")
        with pytest.raises(InvalidInputError, match="different job configuration"):
            drifted.run(resume=True)

    def test_same_backend_resumes(self, tmp_path):
        matrix = powerlaw_matrix(
            400, alpha=2.5, target_nnz=2_000, hub_bias=0.5, rng=17
        )
        full = tmp_path / "full"
        want = self._runner(matrix, full, backend="numpy").run()
        again = self._runner(matrix, full, backend="numpy").run(resume=True)
        assert_bit_identical(again.matrix, want.matrix)

    def test_kernel_label_fingerprinted(self, tmp_path):
        matrix = powerlaw_matrix(
            400, alpha=2.5, target_nnz=2_000, hub_bias=0.5, rng=17
        )
        ckdir = tmp_path / "ck"
        self._runner(matrix, ckdir, kernel="esc").run()
        drifted = self._runner(matrix, ckdir, kernel="spa")
        with pytest.raises(InvalidInputError, match="different job configuration"):
            drifted.run(resume=True)
