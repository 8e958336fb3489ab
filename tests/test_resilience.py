"""Tests for the service-level fault-tolerance layer (:mod:`repro.resilience`).

Covers: the config value objects and their dict round-trips, the
circuit-breaker state machine on the simulated clock, the end-to-end
verifier (clean products pass; injected bit-flips and dropped rows
raise typed :class:`CorruptResultError`), the quarantine registry, the
brownout shed-level controller, and the resilient executor end to end:
an injected executor crash resumes bit-identically mid-job, transient
corruption is retried to success, persistent corruption exhausts its
attempts into quarantine (with look-alike submissions refused at
admission), a tripped backend breaker degrades the ladder while the
delivered result stays scipy-equal to the fault-free run, and brownout
pressure sheds low-priority traffic with the arithmetic in the error
context.
"""

import json

import numpy as np
import pytest

from repro.faults import FaultSpec
from repro.obs.runtable import render_csv
from repro.obs.spans import observed
from repro.resilience import (
    DEGRADE_ORDER,
    SHED_ORDER,
    BreakerConfig,
    BrownoutConfig,
    BrownoutController,
    CircuitBreaker,
    QuarantineRegistry,
    ResilienceConfig,
    ResilientExecutor,
    VerifySpec,
    poison_key,
    sample_rows,
    verify_result,
)
from repro.service import (
    COMPLETED,
    QUARANTINED,
    REJECTED,
    JobRequest,
    JobService,
    LoadSpec,
    ServiceConfig,
    TenantSpec,
    run_load,
    workload_operands,
)
from repro.util.errors import CorruptResultError, InvalidInputError, ResourceExhausted

WORKLOAD = "powerlaw-sm"


def _operands():
    return workload_operands(WORKLOAD)


def _product():
    """A genuine (a, b, c) triple for verifier tests."""
    from repro.core.hhcpu import HHCPU

    a, b = _operands()
    return a, b, HHCPU().multiply(a, b).matrix


def _request(faults=None, tenant="t0", priority="normal"):
    a, b = _operands()
    return JobRequest(tenant=tenant, workload=WORKLOAD, priority=priority,
                      a=a, b=b, faults=faults)


def _faults(doc):
    return FaultSpec.from_dict(doc)


def _bitflip(probability=1.0, bit=62, backend=None, seed=7, max_errors=0):
    entry = {"kind": "result_corrupt", "device": "gpu",
             "probability": probability, "mode": "bitflip", "bit": bit,
             "max_errors": max_errors}
    if backend is not None:
        entry["backend"] = backend
    return _faults({"seed": seed, "faults": [entry]})


def _same_matrix(x, y):
    return (
        np.array_equal(x.indptr, y.indptr)
        and np.array_equal(x.indices, y.indices)
        and np.array_equal(x.data, y.data)
    )


# -- configuration value objects ------------------------------------------

class TestConfig:
    def test_round_trip(self):
        cfg = ResilienceConfig(
            checkpoint_every=10,
            verify=VerifySpec(block_rows=32, blocks=2, full=True),
            quarantine_after=3,
            breaker=BreakerConfig(failure_threshold=2, cooldown_s=1.0),
            brownout=BrownoutConfig(util_high=0.5, util_low=0.1),
        )
        assert ResilienceConfig.from_dict(cfg.as_dict()) == cfg

    def test_nulls_disable_subfeatures(self):
        cfg = ResilienceConfig(checkpoint_every=None, verify=None,
                               breaker=None, brownout=None)
        doc = cfg.as_dict()
        assert doc["verify"] is None and doc["breaker"] is None
        assert ResilienceConfig.from_dict(doc) == cfg

    def test_unknown_fields_rejected(self):
        with pytest.raises(InvalidInputError):
            ResilienceConfig.from_dict({"verfy": {}})
        with pytest.raises(InvalidInputError):
            VerifySpec.from_dict({"block_rows": 8, "extra": 1})

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            ResilienceConfig(quarantine_after=0)
        with pytest.raises(InvalidInputError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(InvalidInputError):
            BrownoutConfig(util_low=0.9, util_high=0.8)

    def test_degrade_chain(self):
        cfg = ResilienceConfig()
        assert DEGRADE_ORDER == ("numpy", "reference")
        assert cfg.degrade_chain("numpy") == ("numpy", "reference")
        assert cfg.degrade_chain("reference") == ("reference",)
        # unknown backends fall down the standard ladder behind them
        assert cfg.degrade_chain("cuda") == ("cuda",) + DEGRADE_ORDER[1:]

    def test_service_config_round_trips_resilience(self):
        svc_cfg = ServiceConfig(resilience=ResilienceConfig())
        doc = svc_cfg.as_dict()
        assert doc["resilience"]["quarantine_after"] == 2
        assert ServiceConfig.from_dict(doc).resilience == ResilienceConfig()


# -- circuit breaker -------------------------------------------------------

class TestCircuitBreaker:
    CFG = BreakerConfig(failure_threshold=3, cooldown_s=5.0)

    def test_trips_at_threshold_and_refuses_while_open(self):
        br = CircuitBreaker("numpy", self.CFG)
        br.record_failure(0.0)
        br.record_failure(0.1)
        assert br.state == "closed" and br.allows(0.2)
        br.record_failure(0.2)
        assert br.state == "open" and br.trips == 1
        assert not br.allows(0.3)
        assert not br.allows(5.19)  # cooldown not yet elapsed

    def test_half_open_probe_success_closes(self):
        br = CircuitBreaker("numpy", self.CFG)
        for t in (0.0, 0.0, 0.0):
            br.record_failure(t)
        assert br.allows(5.0)  # cooldown elapsed: one probe admitted
        assert br.state == "half_open"
        assert not br.allows(5.0)  # the probe is already outstanding
        br.record_success(5.5)
        assert br.state == "closed" and br.failures == 0
        assert br.allows(5.5)

    def test_half_open_probe_failure_reopens_instantly(self):
        br = CircuitBreaker("numpy", self.CFG)
        for t in (0.0, 0.0, 0.0):
            br.record_failure(t)
        assert br.allows(5.0)
        br.record_failure(5.5)
        assert br.state == "open" and br.trips == 2
        assert not br.allows(10.0)  # cooldown restarts from the re-open
        assert br.allows(10.5)

    def test_success_resets_failure_streak(self):
        br = CircuitBreaker("numpy", self.CFG)
        br.record_failure(0.0)
        br.record_failure(0.0)
        br.record_success(0.1)
        br.record_failure(0.2)
        br.record_failure(0.3)
        assert br.state == "closed"  # streak restarted after the success


# -- verifier --------------------------------------------------------------

class TestVerifier:
    def test_clean_product_passes(self):
        a, b, c = _product()
        assert verify_result(a, b, c, VerifySpec()) > 0
        assert verify_result(a, b, c, VerifySpec(full=True)) == a.nrows

    def test_sampling_is_deterministic(self):
        spec = VerifySpec(block_rows=16, blocks=3)
        one = sample_rows(spec, 5000)
        two = sample_rows(spec, 5000)
        assert np.array_equal(one, two)
        assert one.size <= 48 and np.all(np.diff(one) > 0)

    def test_small_results_verify_fully(self):
        spec = VerifySpec(block_rows=64, blocks=4)
        assert sample_rows(spec, 100).size == 100

    def test_bitflip_is_detected(self):
        a, b, c = _product()
        data = c.data.copy()
        bits = data.view(np.uint64)
        bits[len(bits) // 2] ^= np.uint64(1) << np.uint64(62)
        corrupt = type(c)(c.shape, c.indptr, c.indices, data, validate=False)
        with pytest.raises(CorruptResultError) as err:
            verify_result(a, b, corrupt, VerifySpec(full=True), backend="numpy")
        assert err.value.context["check"] == "value-mismatch"
        assert err.value.context["backend"] == "numpy"

    def test_dropped_row_is_detected(self):
        a, b, c = _product()
        victim = int(np.argmax(np.diff(c.indptr)))  # densest row
        keep = np.ones(c.indices.size, dtype=bool)
        keep[c.indptr[victim]:c.indptr[victim + 1]] = False
        indptr = c.indptr.copy()
        dropped = int(c.indptr[victim + 1] - c.indptr[victim])
        indptr[victim + 1:] -= dropped
        corrupt = type(c)(c.shape, indptr, c.indices[keep], c.data[keep],
                          validate=False)
        with pytest.raises(CorruptResultError) as err:
            verify_result(a, b, corrupt, VerifySpec())
        assert err.value.context["check"] == "structure-mismatch"

    def test_empty_row_with_a_support_is_always_audited(self):
        # the suspicious-row net: a wholly lost output row is caught
        # even with a minimal seeded sample, because an empty C row
        # under a non-empty A row is audited unconditionally
        a, b, c = _product()
        spec = VerifySpec(block_rows=1, blocks=1)
        nonempty = np.flatnonzero(np.diff(c.indptr) > 0)
        victim = int(nonempty[-1])
        keep = np.ones(c.indices.size, dtype=bool)
        keep[c.indptr[victim]:c.indptr[victim + 1]] = False
        indptr = c.indptr.copy()
        indptr[victim + 1:] -= int(c.indptr[victim + 1] - c.indptr[victim])
        corrupt = type(c)(c.shape, indptr, c.indices[keep], c.data[keep],
                          validate=False)
        with pytest.raises(CorruptResultError):
            verify_result(a, b, corrupt, spec)

    def test_structural_damage_is_detected(self):
        a, b, c = _product()
        bad_indptr = c.indptr.copy()
        bad_indptr[1] = bad_indptr[2] + 1  # not monotone
        broken = type(c)(c.shape, bad_indptr, c.indices, c.data, validate=False)
        with pytest.raises(CorruptResultError) as err:
            verify_result(a, b, broken, VerifySpec())
        assert err.value.context["check"] == "indptr"

    def test_nonfinite_values_are_detected(self):
        a, b, c = _product()
        data = c.data.copy()
        data[0] = np.nan
        corrupt = type(c)(c.shape, c.indptr, c.indices, data, validate=False)
        with pytest.raises(CorruptResultError) as err:
            verify_result(a, b, corrupt, VerifySpec())
        assert err.value.context["check"] == "finite"


# -- quarantine registry ---------------------------------------------------

class TestQuarantine:
    def test_poison_key_is_canonical(self):
        spec = _bitflip()
        key = poison_key(WORKLOAD, spec.as_dict())
        assert key == poison_key(WORKLOAD, spec.as_dict())
        assert key != poison_key("other", spec.as_dict())
        assert WORKLOAD in key

    def test_quarantine_and_refuse(self):
        reg = QuarantineRegistry()
        err = CorruptResultError("bad", check="value-mismatch", attempts=2)
        reg.quarantine("k1", err, jobs=3, now=1.0)
        assert len(reg) == 1 and reg.is_quarantined("k1")
        assert reg.jobs_quarantined == 3
        assert reg.evidence("k1") is err
        refusal = reg.refuse("k1", now=2.0)
        assert isinstance(refusal, CorruptResultError)
        assert refusal.context["poison_key"] == "k1"
        assert refusal.context["check"] == "value-mismatch"

    def test_requarantine_keeps_first_evidence(self):
        reg = QuarantineRegistry()
        first = CorruptResultError("first", check="a")
        reg.quarantine("k", first, jobs=1, now=0.0)
        reg.quarantine("k", CorruptResultError("second", check="b"),
                       jobs=2, now=1.0)
        assert len(reg) == 1 and reg.jobs_quarantined == 3
        assert reg.evidence("k") is first


# -- brownout controller ---------------------------------------------------

class TestBrownout:
    CFG = BrownoutConfig(util_high=0.8, util_low=0.4, miss_rate_high=0.5,
                         miss_rate_low=0.1, escalate=1.5, window=4,
                         target_latency_s=1.0)

    def test_shed_order_never_covers_high(self):
        for classes in SHED_ORDER:
            assert "high" not in classes

    def test_level_engages_and_escalates_on_utilization(self):
        ctl = BrownoutController(self.CFG)
        assert ctl.update(0.5, 0.0) == 0
        assert ctl.update(0.9, 1.0) == 1  # pressure 1.125
        assert ctl.should_shed("low") and not ctl.should_shed("normal")
        assert ctl.update(1.3, 2.0) == 2  # pressure 1.625 >= escalate
        assert ctl.should_shed("normal") and not ctl.should_shed("high")

    def test_miss_rate_signal_engages_shedding(self):
        ctl = BrownoutController(self.CFG)
        for lat in (2.0, 3.0, 0.5, 2.5):  # 3 of 4 miss the 1s target
            ctl.observe_completion(lat)
        assert ctl.miss_rate() == 0.75
        assert ctl.update(0.0, 0.0) == 2  # 0.75/0.5 = 1.5 >= escalate

    def test_hysteresis_releases_one_level_at_a_time(self):
        ctl = BrownoutController(self.CFG)
        ctl.update(1.3, 0.0)
        assert ctl.level == 2
        assert ctl.update(0.6, 1.0) == 2  # between watermarks: hold
        assert ctl.update(0.3, 2.0) == 1  # below low: step down
        assert ctl.update(0.3, 3.0) == 0
        assert ctl.update(0.3, 4.0) == 0

    def test_shed_context_carries_the_arithmetic(self):
        ctl = BrownoutController(self.CFG)
        ctl.update(0.9, 0.0)
        ctx = ctl.shed_context(0.9)
        assert ctx["level"] == 1 and ctx["shed_classes"] == ["low"]
        assert ctx["utilization"] == 0.9
        assert ctl.shed_total == 1


# -- the resilient executor, end to end -----------------------------------

class TestResilientExecutor:
    def _service(self, resilience=None, **cfg):
        return JobService(ServiceConfig(
            resilience=resilience or ResilienceConfig(), **cfg,
        ))

    def test_clean_run_is_verified_and_checkpointed(self):
        svc = self._service()
        jid = svc.submit(_request())
        svc.drain()
        assert svc.status(jid) == COMPLETED
        summary = svc.resilience_summary()
        assert summary["checkpoints"] > 0
        assert summary["resumes"] == 0 and summary["corrupt_detected"] == 0

    def test_executor_crash_resumes_bit_identically(self):
        baseline = self._service()
        jb = baseline.submit(_request())
        baseline.drain()

        crash = _faults({"seed": 7, "faults": [
            {"kind": "executor_crash", "at_checkpoint": 1}]})
        svc = self._service()
        jc = svc.submit(_request(faults=crash))
        svc.drain()
        assert svc.status(jc) == COMPLETED
        summary = svc.resilience_summary()
        assert summary["crashes"] == 1 and summary["resumes"] == 1
        assert _same_matrix(svc.result(jc).matrix, baseline.result(jb).matrix)

    def test_transient_corruption_is_retried_to_success(self):
        # seed 11 / p=0.3: the first attempt corrupts, the salted retry
        # comes back clean — pinned, so the test is deterministic
        faults = _bitflip(probability=0.3, seed=11)
        svc = self._service(ResilienceConfig(quarantine_after=3))
        jid = svc.submit(_request(faults=faults))
        svc.drain()
        assert svc.status(jid) == COMPLETED
        summary = svc.resilience_summary()
        assert summary["corrupt_detected"] == 1
        assert summary["corrupt_retries"] == 1
        assert summary["quarantined_keys"] == 0

    def test_persistent_corruption_is_quarantined(self):
        faults = _bitflip(probability=1.0)
        svc = self._service()
        jid = svc.submit(_request(faults=faults))
        svc.drain()
        assert svc.status(jid) == QUARANTINED
        with pytest.raises(CorruptResultError) as err:
            svc.result(jid)
        assert err.value.context["attempts"] == 2
        summary = svc.resilience_summary()
        assert summary["corrupt_detected"] == 2
        assert summary["quarantined_keys"] == 1

    def test_quarantined_signature_is_refused_at_submit(self):
        faults = _bitflip(probability=1.0)
        svc = self._service()
        first = svc.submit(_request(faults=faults))
        svc.drain()
        assert svc.status(first) == QUARANTINED
        # a look-alike submission never reaches the executor
        executed_before = svc.executor.stats["verified"]
        second = svc.submit(_request(faults=faults))
        assert svc.status(second) == QUARANTINED
        assert svc.executor.stats["verified"] == executed_before
        with pytest.raises(CorruptResultError) as err:
            svc.result(second)
        assert "poison_key" in err.value.context
        # a different fault signature is admitted normally
        clean = svc.submit(_request())
        svc.drain()
        assert svc.status(clean) == COMPLETED

    def test_breaker_trips_and_degrades_the_ladder(self):
        # corruption pinned to the numpy backend: attempt 0 runs on
        # numpy and corrupts, the breaker trips, attempt 1 degrades to
        # the reference oracle where the fault no longer matches — job
        # completes with a result scipy-equal to the fault-free run
        faults = _faults({"seed": 7, "faults": [
            {"kind": "result_corrupt", "device": "gpu", "probability": 1.0,
             "mode": "drop_row", "backend": "numpy"}]})
        resilience = ResilienceConfig(
            quarantine_after=4,
            verify=VerifySpec(full=True),
            breaker=BreakerConfig(failure_threshold=1, cooldown_s=100.0),
        )
        svc = self._service(resilience, backend="numpy")
        jid = svc.submit(_request(faults=faults))
        svc.drain()
        assert svc.status(jid) == COMPLETED
        summary = svc.resilience_summary()
        assert summary["corrupt_detected"] == 1
        assert summary["breaker_trips"] == 1
        assert summary["degraded_dispatches"] == 1

        baseline = self._service(ResilienceConfig())
        jb = baseline.submit(_request())
        baseline.drain()
        delivered = svc.result(jid).matrix.to_scipy()
        expected = baseline.result(jb).matrix.to_scipy()
        assert (delivered != expected).nnz == 0

    def test_executor_without_checkpoints_still_verifies(self):
        resilience = ResilienceConfig(checkpoint_every=None)
        svc = self._service(resilience)
        jid = svc.submit(_request())
        svc.drain()
        assert svc.status(jid) == COMPLETED
        assert svc.resilience_summary()["checkpoints"] == 0

    def test_executor_requires_operands(self):
        from repro.util.errors import ServiceError

        executor = ResilientExecutor(ServiceConfig(resilience=ResilienceConfig()))
        with pytest.raises(ServiceError):
            executor.execute(JobRequest(tenant="t", workload=WORKLOAD))


# -- brownout shedding through the service --------------------------------

class TestServiceBrownout:
    def _config(self):
        from repro.service.core import TUPLE_BYTES

        budget_tuples = 1000
        return ServiceConfig(
            workers=1,
            mem_budget_bytes=budget_tuples * TUPLE_BYTES,
            batching=False,
            resilience=ResilienceConfig(
                checkpoint_every=None, verify=None, breaker=None,
                brownout=BrownoutConfig(
                    util_high=0.5, util_low=0.1, escalate=3.0, window=4,
                    target_latency_s=1e9,
                ),
            ),
        )

    def test_low_priority_is_shed_under_pressure_high_is_not(self):
        class SlowExecutor:
            def execute(self, request):
                from repro.service.core import ExecOutcome

                return ExecOutcome(sim_duration_s=10.0, result="r")

        svc = JobService(self._config(), executor=SlowExecutor())
        big = JobRequest(tenant="t0", workload="w-big", est_tuples=800)
        jid_big = svc.submit(big)
        # flush dispatch without advancing the clock (step() would run
        # the big job to completion): 800/1000 tuples now in flight
        svc.next_completion_time()
        low = JobRequest(tenant="t1", workload="w-low", priority="low")
        jid_low = svc.submit(low)
        assert svc.status(jid_low) == REJECTED
        with pytest.raises(ResourceExhausted) as err:
            svc.result(jid_low)
        ctx = err.value.context
        assert ctx["reason"] == "brownout_shed"
        assert ctx["level"] == 1 and ctx["shed_classes"] == ["low"]
        assert ctx["utilization"] == 0.8
        # normal and high traffic still admitted at level 1
        jid_high = svc.submit(JobRequest(tenant="t1", workload="w-hi",
                                         priority="high"))
        jid_norm = svc.submit(JobRequest(tenant="t1", workload="w-n"))
        svc.drain()
        assert svc.status(jid_big) == COMPLETED
        assert svc.status(jid_high) == COMPLETED
        assert svc.status(jid_norm) == COMPLETED
        assert svc.resilience_summary()["shed"] == 1

    def test_pressure_clearing_readmits_traffic(self):
        class QuickExecutor:
            def execute(self, request):
                from repro.service.core import ExecOutcome

                return ExecOutcome(sim_duration_s=0.5, result="r")

        svc = JobService(self._config(), executor=QuickExecutor())
        jid_big = svc.submit(JobRequest(tenant="t0", workload="w", est_tuples=800))
        svc.next_completion_time()  # dispatch without advancing the clock
        shed = svc.submit(JobRequest(tenant="t1", workload="w", priority="low"))
        assert svc.status(shed) == REJECTED
        svc.drain()  # pressure clears with the big job gone
        later = svc.submit(JobRequest(tenant="t1", workload="w", priority="low"))
        svc.drain()
        assert svc.status(later) == COMPLETED


# -- chaos under load: determinism and conservation -----------------------

class TestChaosLoad:
    FAULTS = {
        "seed": 13,
        "faults": [
            {"kind": "executor_crash", "at_checkpoint": 1},
            {"kind": "result_corrupt", "device": "gpu", "probability": 0.3,
             "mode": "bitflip", "bit": 62, "max_errors": 2},
        ],
    }

    def _spec(self):
        return LoadSpec(
            tenants=(
                TenantSpec(name="chaotic", workload=WORKLOAD, requests=2,
                           concurrency=1, faults=self.FAULTS),
                TenantSpec(name="steady", workload=WORKLOAD, requests=2,
                           concurrency=1),
            ),
            process="closed",
            repetitions=1,
            seed=20150525,
            label="resilience-chaos",
            service=ServiceConfig(
                workers=2,
                resilience=ResilienceConfig(verify=VerifySpec(full=True)),
            ),
        )

    def test_chaos_rows_report_resilience_columns(self):
        with observed() as (metrics, _):
            rows = run_load(self._spec())
            snap = metrics.snapshot()
        row = rows[0]
        assert row["checkpoints"] > 0
        assert row["resumes"] >= 1  # the executor crash really resumed
        counters = snap["counters"]
        assert counters["faults.executor.crashes"] >= 1
        assert counters["jobs.resume.count"] >= 1
        # conservation including the quarantine state
        assert row["submitted"] == (
            row["work"] + row["rejected"] + row["cancelled"]
            + row["quarantined"] + row["failures"]
        )

    def test_same_seed_chaos_is_byte_identical(self):
        one = run_load(self._spec())
        two = run_load(self._spec())
        assert render_csv(one).encode() == render_csv(two).encode()
        assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)

    def test_delivered_chaos_results_match_fault_free_run(self):
        faults = FaultSpec.from_dict(self.FAULTS)
        resilience = ResilienceConfig(verify=VerifySpec(full=True),
                                      quarantine_after=3)
        chaos = JobService(ServiceConfig(resilience=resilience))
        steady = JobService(ServiceConfig(resilience=resilience))
        cj = chaos.submit(_request(faults=faults))
        sj = steady.submit(_request())
        chaos.drain()
        steady.drain()
        assert chaos.status(cj) == COMPLETED
        delivered = chaos.result(cj).matrix.to_scipy()
        expected = steady.result(sj).matrix.to_scipy()
        assert (delivered != expected).nnz == 0
