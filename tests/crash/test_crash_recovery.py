"""Crash-recovery round trips: every app, every model, many instants."""

import pytest

from repro import GPUSystem, ModelName, Scope, small_system
from repro.apps import APPS, build_app
from repro.crash import CrashHarness

SIZES = {
    "gpkvs": dict(n_pairs=512, capacity=1024, rounds=2),
    "hashmap": dict(n_inserts=512, capacity=1024, rounds=2),
    "srad": dict(side=24),
    "reduction": dict(blocks=3, per_thread=2),
    "multiqueue": dict(batches=2, blocks=3),
    "scan": dict(blocks=3),
}


@pytest.mark.parametrize("name", sorted(APPS))
class TestCrashSweep:
    def test_recover_and_complete_from_any_instant(self, name, model):
        harness = CrashHarness(
            lambda: build_app(name, **SIZES[name]), small_system(model)
        )
        for report in harness.sweep(points=5):
            assert report.consistent, report.error
            assert report.completed, report.error


class TestHarnessMechanics:
    def make(self, model=ModelName.SBRP):
        return CrashHarness(
            lambda: build_app("gpkvs", **SIZES["gpkvs"]), small_system(model)
        )

    def test_crash_at_zero_recovers_to_initial_state(self):
        report = self.make().crash_at(0.0)
        assert report.consistent and report.completed

    def test_crash_at_end_preserves_all_work(self):
        harness = self.make()
        report = harness.crash_at(harness.end_time())
        assert report.consistent and report.completed

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            self.make().crash_at_fraction(1.5)

    def test_worst_case_recovery_cycles_positive(self):
        assert self.make().recovery_cycles_at_worst_case() > 0

    def test_baseline_is_cached(self):
        harness = self.make()
        first = harness.baseline()
        assert harness.baseline() is first

    def _finished_run(self, config):
        system = GPUSystem(config)
        app = build_app("gpkvs", **SIZES["gpkvs"])
        app.setup(system)
        run = app.run(system)
        system.sync()
        return system, app, run

    def test_adopted_run_is_the_baseline(self):
        harness = self.make()
        system, app, run = self._finished_run(harness.config)
        harness.adopt(system, run)
        assert harness.baseline() is system
        assert harness.run_cycles == run.cycles
        assert harness.end_time() == system.now

    def test_adopt_refuses_a_second_baseline(self):
        harness = self.make()
        harness.baseline()
        system, _, run = self._finished_run(harness.config)
        with pytest.raises(ValueError, match="already has a baseline"):
            harness.adopt(system, run)

    def test_adopt_refuses_a_foreign_config(self):
        harness = self.make(ModelName.SBRP)
        system, _, run = self._finished_run(small_system(ModelName.EPOCH))
        with pytest.raises(ValueError, match="different config"):
            harness.adopt(system, run)

    def test_close_closes_the_adopted_machine(self):
        from repro.common.errors import SimulationError

        harness = self.make()
        system, app, run = self._finished_run(harness.config)
        harness.adopt(system, run)
        harness.close()
        with pytest.raises(SimulationError):
            system.now


@pytest.mark.parametrize("name", sorted(APPS))
def test_fresh_is_a_new_instance_with_the_same_params(name):
    app = build_app(name, **SIZES[name])
    twin = app.fresh()
    assert type(twin) is type(app) and twin is not app
    assert twin.params == app.params


class TestScopedPersistencyBug:
    """Section 5.3: using a narrower scope than program semantics needs.

    The producer's pX persist is delayed in its persist buffer behind an
    earlier fenced persist (FSM).  A *device*-scope release only
    publishes its flag once pX is durable, so the cross-block consumer
    always reads 7; a *block*-scope release (the bug) publishes
    immediately and the consumer reads a stale 0.
    """

    def run_demo(self, scope: Scope) -> int:
        system = GPUSystem(small_system(ModelName.SBRP, num_sms=2))
        pm = system.pm_create("pm", 4096)
        flag = system.malloc(128)
        out = system.malloc(128)
        pa, px = pm.word(0), pm.word(64)

        def kernel(w, pa, px, flag, out, scope):
            lead = w.lane == 0
            if w.block_id == 1 and w.warp_in_block == 0:
                yield w.st(pa, 1, mask=lead)
                yield w.ofence()
                yield w.st(px, 7, mask=lead)  # FSM-delayed behind pa's ack
                yield w.prel(flag, 1, scope)
            elif w.block_id == 0 and w.warp_in_block == 0:
                while True:
                    got = yield w.pacq(flag, Scope.DEVICE)
                    if got:
                        break
                vals = yield w.ld(px, mask=lead)
                yield w.st(out, vals, mask=lead)

        system.launch(kernel, 2, args=(pa, px, flag.base, out.base, scope))
        system.sync()
        return system.read_word(out.base)

    def test_correct_device_scope_sees_the_persist(self):
        assert self.run_demo(Scope.DEVICE) == 7

    def test_block_scope_bug_reads_stale_data(self):
        assert self.run_demo(Scope.BLOCK) == 0


class TestPersistBoundaries:
    def make(self, model=ModelName.SBRP):
        return CrashHarness(
            lambda: build_app("gpkvs", **SIZES["gpkvs"]), small_system(model)
        )

    def test_fraction_zero_is_the_initial_image(self):
        report = self.make().crash_at_fraction(0.0)
        assert report.crash_time == 0.0
        assert report.consistent and report.completed

    def test_fraction_one_is_the_end_of_run(self):
        harness = self.make()
        report = harness.crash_at_fraction(1.0)
        assert report.crash_time == harness.end_time()
        assert report.consistent and report.completed

    def test_boundaries_start_at_zero_sorted_distinct(self):
        times = self.make().persist_boundaries()
        assert times[0] == 0.0
        assert times == sorted(times)
        assert len(set(times)) == len(times)
        assert len(times) > 10  # gpkvs persists plenty of lines

    def test_limit_subsamples_keeping_endpoints(self):
        harness = self.make()
        full = harness.persist_boundaries()
        sub = harness.persist_boundaries(limit=7)
        assert len(sub) == 7
        assert sub[0] == full[0] and sub[-1] == full[-1]
        assert set(sub) <= set(full)

    def test_crash_at_every_persist_is_recoverable(self, model):
        harness = CrashHarness(
            lambda: build_app("gpkvs", **SIZES["gpkvs"]), small_system(model)
        )
        reports = harness.crash_at_every_persist(limit=10)
        assert 0 < len(reports) <= 10
        for report in reports:
            assert report.consistent, report.error
