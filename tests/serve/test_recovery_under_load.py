"""Recovery under load: fractional crash points through the serving
stream, crash safety of the resilience layer's degraded launch shapes
(path-policy override and throttled split launches), and the serve
cell's single simulation (the measured run is the crash harness's
baseline, and recovery apps share the planned stream)."""

import pytest

import repro.serve.app as serve_app
from repro.apps import build_app
from repro.common.config import ModelName, small_system
from repro.crash import CrashHarness
from repro.faults.plans import PowerCutPlan
from repro.faults.runner import run_fault_scenario
from repro.metrics.registry import MetricsRegistry
from repro.serve.runner import run_serve_scenario
from repro.serve.txn import POLICY_FORCED_DIRECT, POLICY_FORCED_PB
from repro.system import GPUSystem

ALL_MODELS = [ModelName.SBRP, ModelName.GPM, ModelName.EPOCH]

#: Small batches so crashes land between several group commits.
SMALL = dict(n_requests=96, n_keys=96, capacity=256, batch_requests=24)


def harness(model=ModelName.SBRP):
    return CrashHarness(
        lambda: build_app("serve_kvs", **SMALL), small_system(model)
    )


class TestFractionalCrashPoints:
    @pytest.mark.parametrize("fraction", [0.0, 0.25, 0.5, 0.75])
    @pytest.mark.parametrize(
        "model", [ModelName.SBRP, ModelName.GPM, ModelName.EPOCH]
    )
    def test_partial_executions_recover_consistent(self, model, fraction):
        report = harness(model).crash_at_fraction(fraction, complete=False)
        assert report.consistent, report.error

    def test_crash_after_sync_is_complete(self):
        # Fraction 1.0 crashes after the final sync: every write is
        # durable, so recovery must land on the *complete* table.
        report = harness().crash_at_fraction(1.0, complete=True)
        assert report.consistent, report.error
        assert report.completed, report.error

    def test_recovery_makes_forward_progress(self):
        # Re-running the stream from a mid-flight image must finish it.
        report = harness().crash_at_fraction(0.5, complete=True)
        assert report.consistent, report.error
        assert report.completed, report.error


class TestDegradedLaunchShapes:
    """serve_batch's policy/split levers keep the crash guarantees."""

    def _run_batches(self, policy=None, split=1):
        system = GPUSystem(small_system(ModelName.SBRP))
        app = build_app("serve_kvs", **SMALL)
        app.setup(system)
        for index in range(len(app.plan.batches)):
            app.serve_batch(system, index, policy=policy, split=split)
        return system, app

    @pytest.mark.parametrize(
        "policy,split",
        [
            (None, 2),
            (POLICY_FORCED_PB, 1),
            (POLICY_FORCED_DIRECT, 2),
            (POLICY_FORCED_PB, 3),
        ],
    )
    def test_clean_run_verifies(self, policy, split):
        system, app = self._run_batches(policy=policy, split=split)
        system.sync()
        app.check(system, complete=True)

    @pytest.mark.parametrize("policy", [POLICY_FORCED_PB, POLICY_FORCED_DIRECT])
    def test_mid_run_crash_recovers_consistent(self, policy):
        system, app = self._run_batches(policy=policy, split=2)
        image = system.crash(at=0.5 * system.now)
        rebooted = GPUSystem(small_system(ModelName.SBRP), pm_image=image)
        fresh = build_app("serve_kvs", **SMALL)
        fresh.reopen(rebooted)
        fresh.recover(rebooted)
        rebooted.sync()
        fresh.check(rebooted, complete=False)

    def test_default_shape_matches_run(self):
        # serve_batch at defaults is the planned group commit: same end
        # time as app.run on an identical machine.
        via_batches, _ = self._run_batches()
        system = GPUSystem(small_system(ModelName.SBRP))
        app = build_app("serve_kvs", **SMALL)
        app.setup(system)
        app.run(system)
        assert via_batches.now == system.now

    def test_bad_policy_rejected(self):
        system = GPUSystem(small_system(ModelName.SBRP))
        app = build_app("serve_kvs", **SMALL)
        app.setup(system)
        with pytest.raises(ValueError):
            app.serve_batch(system, 0, policy="bogus")


class TestAdoptedBaseline:
    """A harness that adopts the measured run crashes exactly like one
    that simulates its own baseline."""

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_adopted_reports_equal_lazy_reports(self, model):
        config = small_system(model)
        # Built the way run_serve_scenario builds its measured machine:
        # live metrics on, checked before it is adopted.
        system = GPUSystem(config, metrics=MetricsRegistry())
        app = build_app("serve_kvs", **SMALL)
        app.setup(system)
        run = app.run(system)
        system.sync()
        app.check(system, complete=True)
        adopted = CrashHarness(app.fresh, config)
        adopted.adopt(system, run)
        lazy = harness(model)
        try:
            for fraction in (0.0, 0.5, 0.999, 1.0):
                assert adopted.crash_at_fraction(
                    fraction
                ) == lazy.crash_at_fraction(fraction), fraction
        finally:
            adopted.close()
            lazy.close()


@pytest.fixture
def census(monkeypatch):
    """Count GPUSystem constructions and stream plans."""
    counts = {"machines": 0, "plans": 0}
    init = GPUSystem.__init__
    plan = serve_app.plan_workload

    def counting_init(self, *args, **kwargs):
        counts["machines"] += 1
        init(self, *args, **kwargs)

    def counting_plan(spec):
        counts["plans"] += 1
        return plan(spec)

    monkeypatch.setattr(GPUSystem, "__init__", counting_init)
    monkeypatch.setattr(serve_app, "plan_workload", counting_plan)
    return counts


class TestServeCellSimulatesOnce:
    @pytest.mark.parametrize(
        "measure_recovery,machines", [(True, 2), (False, 1)]
    )
    def test_one_measured_run_one_reboot_one_plan(
        self, census, measure_recovery, machines
    ):
        run_serve_scenario(
            "serve_kvs",
            small_system(ModelName.SBRP),
            SMALL,
            measure_recovery=measure_recovery,
        )
        assert census == {"machines": machines, "plans": 1}

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_recovery_cycles_equal_an_independent_harness(self, model):
        config = small_system(model)
        result = run_serve_scenario("serve_kvs", config, SMALL)
        independent = CrashHarness(
            lambda: build_app("serve_kvs", **SMALL), config
        )
        try:
            want = independent.recovery_cycles_at_worst_case()
        finally:
            independent.close()
        assert result.stats["serve.recovery_cycles"] == want > 0

    def test_fault_scenario_plans_once(self, census):
        fault = dict(PowerCutPlan().to_json(), max_crash_points=4)
        result = run_fault_scenario(
            "serve_kvs", small_system(ModelName.SBRP), SMALL, fault
        )
        assert result.stats["faults.crash_points"] == 4
        # The injected run plus one reboot per crash point, one plan.
        assert census == {"machines": 5, "plans": 1}


def test_fresh_twin_shares_the_plan_and_recovers():
    config = small_system(ModelName.SBRP)
    system = GPUSystem(config)
    app = build_app("serve_kvs", **SMALL)
    app.setup(system)
    app.run(system)
    system.sync()
    twin = app.fresh()
    assert twin is not app and twin.params == app.params
    assert twin.plan is app.plan
    assert twin.path_counts() == app.path_counts()
    # The twin starts without the original machine's allocations.
    assert not hasattr(twin, "tbl_key")
    image = system.crash(at=0.5 * system.now)
    system.close()
    with GPUSystem(config, pm_image=image) as rebooted:
        twin.reopen(rebooted)
        twin.recover(rebooted)
        rebooted.sync()
        twin.check(rebooted, complete=False)
