"""Spin-in-place persist acquires (``PAcq(until=...)``).

A spin op stays on the warp (``Warp.retry_op``) while its flag reads
below ``until``: every attempt costs one issue and is priced exactly
like a freshly yielded ``PAcq``, but the kernel generator resumes only
with the value that ends the spin.  The differential tests rerun every
workload with :func:`legacy_spin`, which turns each spin op back into
the kernel-side loop of one plain ``PAcq`` per attempt, and require
identical fingerprints on both engines.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import given, settings

from litmus_strategies import multi_warp_litmus
from repro import GPUSystem, ModelName, small_system
from repro.apps import build_app
from repro.check.enumerator import VARIANTS
from repro.common.config import PMPlacement, Scope
from repro.formal.bridge import simulate_program
from repro.gpu import device
from repro.gpu.fastcore import FastSM
from repro.gpu.ops import PAcq
from repro.gpu.sm import SM
from repro.gpu.warp import Warp
from repro.perfcore.fingerprint import sim_fingerprint
from repro.perfcore.grid import GRID_MODELS, SIM_PARAMS
from repro.persistency.sbrp import SBRPModel
from repro.persistency.sbrp.pbuffer import EntryKind

ENGINES = ["reference", "fast"]


def legacy_spin(gen):
    """Drive kernel *gen*, replacing each spin op by the kernel-side loop
    it stands for: one plain ``PAcq`` per attempt, resumed every time."""
    send = None
    while True:
        try:
            op = gen.send(send)
        except StopIteration:
            return
        if type(op) is PAcq and op.until is not None:
            plain = PAcq(op.addr, op.scope)
            send = yield plain
            while send < op.until:
                send = yield plain
        else:
            send = yield op


class LegacySpinWarp(Warp):
    __slots__ = ()

    def __init__(self, slot, ctx, gen, block_key):
        super().__init__(slot, ctx, legacy_spin(gen), block_key)


@contextmanager
def warps_of(warp_cls):
    """Build every warp launched inside the block as *warp_cls*."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(device, "Warp", warp_cls)
        yield


def _config(engine):
    return replace(small_system(ModelName.SBRP), engine=engine)


# ----------------------------------------------------------------------
# differential: spin in place == the kernel-side loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("model", [m.value for m in GRID_MODELS])
@pytest.mark.parametrize("app", sorted(SIM_PARAMS))
def test_apps_match_the_kernel_loop(app, model, engine):
    params = SIM_PARAMS[app]
    spun = sim_fingerprint(model, app, params, engine)
    with warps_of(LegacySpinWarp):
        looped = sim_fingerprint(model, app, params, engine)
    assert "error" not in spun
    assert spun == looped


@settings(max_examples=30, deadline=None)
@given(multi_warp_litmus())
def test_litmus_programs_match_the_kernel_loop(program):
    for engine in ENGINES:
        for variant in VARIANTS:
            config = replace(
                variant.configure(program, ModelName.SBRP), engine=engine
            )
            runs = []
            for warp_cls in (Warp, LegacySpinWarp):
                with warps_of(warp_cls):
                    runs.append(
                        simulate_program(
                            program,
                            config=config,
                            crash_points=8,
                            thread_order=variant.thread_order(program),
                        )
                    )
            assert runs[0] == runs[1], (engine, variant.name)


# ----------------------------------------------------------------------
# unit: one spinning warp
# ----------------------------------------------------------------------
def _flag_race(engine, model_factory=None, preset=1, final=2, delay=300):
    """Warp 0 spins on a volatile flag until it reads *final*; warp 1
    computes for *delay* cycles, then releases it.  The flag starts at
    *preset* (nonzero = every early read is stale)."""
    system = GPUSystem(_config(engine), model_factory=model_factory)
    flag = system.malloc(128).base
    system.host_write(flag, preset)
    received = []

    def kernel(w):
        if w.warp_in_block == 0:
            got = yield w.pacq(flag, Scope.BLOCK, until=final)
            received.append(got)  # runs once per generator resume
        elif w.warp_in_block == 1:
            yield w.compute(delay)
            yield w.prel(flag, final, Scope.BLOCK)

    system.launch(kernel, grid_blocks=1)
    system.sync()
    return system, received


class RecordingSBRP(SBRPModel):
    """Stock SBRP that logs every pAcq it prices."""

    def __init__(self, config, stats):
        super().__init__(config, stats)
        self.pacqs = []

    def pacq(self, sm, warp, addr, scope, value, now):
        self.pacqs.append((now, value))
        return super().pacq(sm, warp, addr, scope, value, now)


@pytest.mark.parametrize("engine", ENGINES)
def test_stale_read_prices_every_retry(engine):
    """A nonzero read below ``until`` still calls ``model.pacq`` (it
    appends a PB entry), on every attempt, exactly as the loop did."""
    runs = []
    for warp_cls in (Warp, LegacySpinWarp):
        models = []

        def factory(config, stats):
            models.append(RecordingSBRP(config, stats))
            return models[-1]

        with warps_of(warp_cls):
            system, received = _flag_race(engine, factory)
        assert received == [2]
        runs.append((models[0].pacqs, system.stats.snapshot()))
        system.close()
    (spun, spun_stats), (looped, looped_stats) = runs
    assert spun == looped
    assert spun_stats == looped_stats
    stale = [value for _, value in spun if value == 1]
    assert len(stale) > 2
    assert spun[-1][1] == 2
    assert spun_stats["sbrp.pacq_block"] == len(spun)


class TestSatisfiedSpin:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_generator_resumes_exactly_once(self, engine):
        system, received = _flag_race(engine, preset=0, final=7)
        assert received == [7]
        assert system.stat("sm.pacq_spins") > 2

    @pytest.mark.parametrize("engine", ENGINES)
    def test_already_released_flag_needs_one_attempt(self, engine):
        system, received = _flag_race(engine, preset=2, final=2)
        assert received == [2]
        assert system.stat("sm.pacq_spins") == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_plain_pacq_returns_after_one_attempt(self, engine):
        system = GPUSystem(_config(engine))
        flag = system.malloc(128).base
        received = []

        def kernel(w):
            received.append((yield w.pacq(flag, Scope.BLOCK)))

        system.launch(kernel, grid_blocks=1)
        assert received == [0] * (system.config.gpu.warps_per_block)
        assert system.stat("sm.instructions") == len(received)


@pytest.mark.parametrize("engine", ENGINES)
def test_spin_blocked_by_full_pb_retries_after_wake(engine):
    """Fill SM 0's persist buffer by hand: the first (stale, nonzero)
    attempt stalls for space; the drain wakes the warp, which re-runs
    the same spin op, not its generator."""

    def run():
        system = GPUSystem(_config(engine))
        flag = system.malloc(128).base
        system.host_write(flag, 1)
        st = system.gpu.model.states[0]
        while not st.pb.is_full():
            st.pb.append(EntryKind.PACQ, 1 << 3, scope=Scope.BLOCK)
        received = []

        def kernel(w):
            if w.warp_in_block == 0:
                received.append((yield w.pacq(flag, Scope.BLOCK, until=2)))
            elif w.warp_in_block == 1:
                yield w.compute(300)
                yield w.prel(flag, 2, Scope.BLOCK)

        system.launch(kernel, grid_blocks=1)
        system.sync()
        return system, received

    spun, received = run()
    with warps_of(LegacySpinWarp):
        looped, _ = run()
    assert received == [2]
    assert spun.stat("sbrp.pb_full_stalls") > 0
    assert spun.stats.snapshot() == looped.stats.snapshot()
    assert spun.now == looped.now


class IssueLog:
    """Wraps both SMs' issue events to log the scheduler state after
    every one: time, RR position, and each warp's state and ready time."""

    def __init__(self, monkeypatch):
        self.rows = []
        for cls in (SM, FastSM):
            monkeypatch.setattr(cls, "_on_issue", self._wrap(cls._on_issue))

    def _wrap(self, issue):
        rows = self.rows

        def logged(sm, now):
            issue(sm, now)
            rows.append(
                (
                    now,
                    sm.sm_id,
                    sm._rr,
                    tuple(
                        (slot, w.state.value, w.ready_time)
                        for slot, w in sorted(sm.warps.items())
                    ),
                )
            )

        return logged


@pytest.mark.parametrize("engine", ENGINES)
def test_schedule_matches_the_loop_step_by_step(engine, monkeypatch):
    log = IssueLog(monkeypatch)
    config = replace(small_system(ModelName.SBRP, PMPlacement.FAR), engine=engine)
    traces = []
    for warp_cls in (Warp, LegacySpinWarp):
        log.rows.clear()
        with warps_of(warp_cls), GPUSystem(config) as system:
            app = build_app("multiqueue", **SIM_PARAMS["multiqueue"])
            app.setup(system)
            app.run(system)
        traces.append(list(log.rows))
    assert len(traces[0]) > 1000
    assert traces[0] == traces[1]
