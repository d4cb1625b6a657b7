"""Fault injection end to end: every plan kind against real workloads,
plus the engine watchdog at system level."""

import math

import pytest

from repro import GPUSystem, ModelName, PMPlacement, small_system
from repro.apps import build_app
from repro.common.errors import (
    FaultInjectionError,
    LivelockError,
    TornPersistError,
)
from repro.faults import (
    AckDelayPlan,
    AckLossPlan,
    DrainDropPlan,
    FaultInjector,
    NVMTransientPlan,
    PowerCutPlan,
    TornPersistPlan,
    build_injector,
)
from repro.faults.injector import _mix
from repro.faults.oracles import (
    APP_VIOLATION,
    CONSISTENT,
    FAULT_RAISED,
    HUNG,
    recover_and_classify,
)
from repro.faults.runner import run_fault_scenario
from repro.memory.subsystem import PersistRecord

PARAMS = dict(n_pairs=128, capacity=256, rounds=2)


def scenario(model, plan_json, params=PARAMS, max_points=8):
    config = small_system(model, placement=PMPlacement.FAR)
    fault = dict(plan_json)
    fault["max_crash_points"] = max_points
    return run_fault_scenario("gpkvs", config, dict(params), fault)


class TestDeterminism:
    def test_mix_is_deterministic(self):
        assert _mix(1, 42) == _mix(1, 42)
        assert _mix(1, 42) != _mix(1, 43)
        assert _mix(1, 42) != _mix(2, 42)

    def test_build_injector(self):
        assert build_injector(None) is None
        injector = build_injector(PowerCutPlan())
        assert injector is not None and injector.active

    def test_scenario_detail_is_reproducible(self, model):
        first = scenario(model, PowerCutPlan().to_json())
        second = scenario(model, PowerCutPlan().to_json())
        assert first.detail == second.detail
        assert first.cycles == second.cycles


class TestTornPersists:
    def test_last_mode_tears_only_the_final_record(self):
        records = [
            PersistRecord(seq, 0, 128 * seq, {128 * seq + 4 * i: i for i in range(4)}, 100.0 * seq)
            for seq in range(1, 4)
        ]
        injector = FaultInjector(TornPersistPlan(span_cycles=50.0))
        torn = injector.torn_records(records, 310.0)
        assert torn[0].words == records[0].words
        assert torn[1].words == records[1].words
        assert set(torn[2].words).issubset(set(records[2].words))
        assert len(torn[2].words) < len(records[2].words)

    def test_last_mode_respects_span(self):
        records = [PersistRecord(1, 0, 0, {0: 1, 4: 2}, 100.0)]
        injector = FaultInjector(TornPersistPlan(span_cycles=50.0))
        assert injector.torn_records(records, 500.0)[0].words == records[0].words

    def test_window_mode_tears_every_resident_record(self):
        records = [
            PersistRecord(seq, 0, 128 * seq, {128 * seq + 4 * i: i for i in range(4)}, 1000.0 + seq)
            for seq in range(1, 4)
        ]
        plan = TornPersistPlan(mode="window", span_cycles=100.0, expect="any")
        torn = FaultInjector(plan).torn_records(records, 1005.0)
        for before, after in zip(records, torn):
            assert len(after.words) < len(before.words)

    def test_empty_record_raises_typed_error(self):
        injector = FaultInjector(TornPersistPlan())
        with pytest.raises(TornPersistError):
            injector.torn_records([PersistRecord(1, 0, 0, {}, 10.0)], 10.0)

    def test_safe_tear_recovers_consistently(self, model):
        result = scenario(model, TornPersistPlan().to_json())
        assert result.detail["outcome"] == CONSISTENT
        assert result.detail["matched"]


class TestDrainDrop:
    def test_dropped_flushes_break_recovery(self):
        result = scenario(ModelName.SBRP, DrainDropPlan().to_json())
        detail = result.detail
        assert detail["injected"]["dropped_flushes"] > 0
        assert detail["outcome"] == "inconsistent"
        assert detail["point_counts"].get(APP_VIOLATION, 0) > 0
        assert detail["matched"]  # expect=any records, never fails

    def test_reproducer_pins_one_crash_point(self):
        result = scenario(ModelName.SBRP, DrainDropPlan().to_json())
        repro = result.detail["reproducer"]
        assert repro is not None
        assert repro["mode"] == "faults"
        assert len(repro["fault"]["crash_times"]) == 1

    def test_drop_cap_and_offset(self):
        injector = FaultInjector(
            DrainDropPlan(drop_every=1, drop_offset=2, max_drops=3)
        )
        decisions = [injector.drop_flush(0, 128 * i) for i in range(10)]
        assert decisions == [False, False, True, True, True] + [False] * 5


class TestAckFaults:
    def test_delayed_acks_only_slow_the_run(self, model):
        clean = scenario(model, PowerCutPlan().to_json(), max_points=1)
        delayed = scenario(model, AckDelayPlan().to_json(), max_points=1)
        assert delayed.detail["outcome"] == CONSISTENT
        assert delayed.detail["injected"]["delayed_acks"] > 0
        assert delayed.cycles >= clean.cycles

    def test_lost_acks_wedge_diagnosably(self, model):
        """ACTR starvation must surface as a *typed* failure (deadlock,
        budget, or watchdog) — never an undiagnosed infinite run."""
        result = scenario(model, AckLossPlan().to_json())
        detail = result.detail
        assert detail["run"]["classification"] == HUNG
        assert detail["outcome"] == HUNG
        assert detail["matched"]
        assert detail["injected"]["lost_acks"] > 0


class TestNVMTransients:
    def test_within_retry_budget_adds_latency_only(self, model):
        clean = scenario(model, PowerCutPlan().to_json(), max_points=1)
        flaky = scenario(model, NVMTransientPlan().to_json(), max_points=1)
        assert flaky.detail["outcome"] == CONSISTENT
        assert flaky.detail["injected"]["nvm_transient_failures"] > 0
        assert flaky.cycles > clean.cycles

    def test_retry_exhaustion_raises_typed_error(self, model):
        plan = NVMTransientPlan(fails=7, max_retries=3, expect=FAULT_RAISED)
        result = scenario(model, plan.to_json())
        detail = result.detail
        assert detail["run"]["classification"] == FAULT_RAISED
        assert detail["matched"]
        assert "FaultInjectionError" in detail["run"]["error"]

    def test_injector_raises_directly(self):
        injector = FaultInjector(
            NVMTransientPlan(fails=7, max_retries=3, expect="any")
        )
        with pytest.raises(FaultInjectionError, match="retry budget"):
            injector.persist_delay(NVMTransientPlan().fail_every)


class TestOracleClassification:
    def test_complete_image_is_consistent(self):
        config = small_system(ModelName.SBRP)
        system = GPUSystem(config)
        app = build_app("gpkvs", **PARAMS)
        app.setup(system)
        app.run(system)
        system.sync()
        classification, error = recover_and_classify(
            app.fresh, config, system.crash()
        )
        assert classification == CONSISTENT and error is None

    def test_seeded_bug_classified_as_app_violation(self):
        params = {**PARAMS, "seeded_bug": "commit_first"}
        result = scenario(ModelName.SBRP, PowerCutPlan(expect="any").to_json(), params=params, max_points=0)
        counts = result.detail["point_counts"]
        assert counts.get(APP_VIOLATION, 0) > 0


class TestWatchdog:
    def test_spinning_kernel_is_diagnosed(self):
        """A pAcq spin whose flag never publishes generates events
        forever without progress; the watchdog must convert that into a
        LivelockError with queue-depth diagnostics."""
        from repro.common.config import Scope

        system = GPUSystem(
            small_system(ModelName.SBRP), watchdog_events=20_000
        )
        flag = system.malloc(128)

        def spin(w):
            while True:
                got = yield w.pacq(flag.base, Scope.DEVICE)
                if got:
                    break

        with pytest.raises(LivelockError) as info:
            system.launch(spin, 1)
            system.sync()
        err = info.value
        assert err.idle_events > 20_000
        assert err.queue_depths.get("engine.pending", 0) >= 0
        assert any(key.endswith("live_warps") for key in err.queue_depths)

    def test_real_workload_stays_under_watchdog(self, model):
        system = GPUSystem(small_system(model), watchdog_events=200_000)
        app = build_app("gpkvs", **PARAMS)
        app.setup(system)
        app.run(system)
        assert math.isfinite(system.sync())
