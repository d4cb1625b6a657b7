"""The SBRP drain's resumable held-prefix scan.

A drain pass starts after the leading entries the previous pass found
delayed (``SBRPState.scan_*``).  The differential tests run every
workload twice — stock, and with a model that forgets the prefix before
every pass (always a full scan) — and require identical fingerprints.
The unit tests drive one pump at a time and pin each trigger that must
drop the prefix: without the drop, the next pass would skip an entry
whose verdict has changed.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from litmus_strategies import multi_warp_litmus
from repro import GPUSystem, ModelName, small_system
from repro.apps import build_app
from repro.check.enumerator import VARIANTS
from repro.common.bitmask import WarpMask
from repro.common.config import DrainPolicy, PMPlacement
from repro.formal.bridge import simulate_program
from repro.perfcore.fingerprint import sha256_of
from repro.perfcore.grid import SIM_PARAMS
from repro.persistency.sbrp import SBRPModel
from repro.persistency.sbrp.pbuffer import EntryKind


class FullScanSBRP(SBRPModel):
    """Stock SBRP, except every drain pass scans from the head."""

    def _pump(self, sm, now):
        self.states[sm.sm_id].drop_scan()
        super()._pump(sm, now)


class CountingSBRP(SBRPModel):
    """Stock SBRP that counts the passes resuming a nonempty prefix."""

    def __init__(self, config, stats):
        super().__init__(config, stats)
        self.resumed = 0

    def _pump(self, sm, now):
        st = self.states[sm.sm_id]
        fsm_bits = st.fsm.bits if st.actr else 0
        if st.scan_len and not st.scan_fsm & ~fsm_bits:
            self.resumed += 1
        super()._pump(sm, now)


def _app_fingerprint(app, params, engine, policy, model_factory):
    config = replace(
        small_system(ModelName.SBRP, PMPlacement.FAR),
        engine=engine,
    )
    config = replace(config, sbrp=replace(config.sbrp, drain_policy=policy))
    system = GPUSystem(config, metrics=True, model_factory=model_factory)
    app_obj = build_app(app, **params)
    app_obj.setup(system)
    app_obj.run(system)
    system.sync()
    app_obj.check(system, complete=True)
    image = system.crash()
    return {
        "cycles": system.total_cycles(),
        "stats": system.stats.snapshot(),
        "crash_image_sha256": sha256_of(
            {str(addr): value for addr, value in sorted(image.pm.items())}
        ),
        "metrics_snapshot_sha256": sha256_of(system.metrics_snapshot()),
    }


# ----------------------------------------------------------------------
# differential: resumed scan == full scan
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", list(DrainPolicy), ids=lambda p: p.value)
@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize("app", sorted(SIM_PARAMS))
def test_apps_match_full_scan(app, engine, policy):
    params = SIM_PARAMS[app]
    stock = _app_fingerprint(app, params, engine, policy, SBRPModel)
    full = _app_fingerprint(app, params, engine, policy, FullScanSBRP)
    assert stock == full


@pytest.mark.parametrize("app", sorted(SIM_PARAMS))
def test_pinned_apps_resume_the_scan(app):
    """Every pinned case really skips held prefixes, so the differential
    test above is not vacuous."""
    models = []

    def factory(config, stats):
        models.append(CountingSBRP(config, stats))
        return models[-1]

    _app_fingerprint(app, SIM_PARAMS[app], "fast", DrainPolicy.WINDOW, factory)
    assert models[0].resumed > 0


@settings(max_examples=40, deadline=None)
@given(multi_warp_litmus())
def test_litmus_programs_match_full_scan(program):
    for variant in VARIANTS:
        config = variant.configure(program, ModelName.SBRP)
        runs = [
            simulate_program(
                program,
                config=config,
                crash_points=8,
                model_factory=factory,
                thread_order=variant.thread_order(program),
            )
            for factory in (SBRPModel, FullScanSBRP)
        ]
        assert runs[0] == runs[1], variant.name


# ----------------------------------------------------------------------
# unit: one pump at a time
# ----------------------------------------------------------------------
W0, W1, W2 = 0b001, 0b010, 0b100


class Rig:
    """One SBRP SM with hand-built PB contents.  Persists name lines the
    L1 does not hold, so a flush only retires the entry."""

    def __init__(self, trace: bool = False) -> None:
        self.system = GPUSystem(small_system(ModelName.SBRP), trace=trace)
        self.model = self.system.gpu.model
        self.sm = self.system.gpu.sms[0]
        self.st = self.model.states[0]
        self.next_line = 0

    def hold_fsm(self, bits: int) -> None:
        """Warps *bits* have a flushed, unacknowledged persist."""
        self.st.add_inflight(1e9)
        self.st.fsm.or_with(WarpMask(self.st.max_warps, bits))

    def persist(self, mask: int):
        self.next_line += 128
        return self.st.pb.append(EntryKind.PERSIST, mask, line_addr=self.next_line)

    def dirty_line(self, entry):
        """Make *entry*'s line resident and dirty in the L1."""
        line = self.sm.l1.victim_for(entry.line_addr)
        self.sm.l1.fill(line, entry.line_addr, is_pm=True, now=self.system.now)
        line.dirty = True
        line.pb_index = entry.seq
        return line

    def pump(self) -> None:
        self.model._pump(self.sm, self.system.now)

    def live(self):
        return self.st.pb.entries()


def test_pass_records_held_prefix_past_removed_entries():
    rig = Rig()
    rig.hold_fsm(W0)
    a = rig.persist(W0)
    rig.persist(W1)  # flows: removed, does not end the prefix
    c = rig.persist(W0)
    rig.pump()
    assert rig.live() == [a, c]
    st = rig.st
    assert (st.scan_len, st.scan_seq, st.scan_hold, st.scan_fsm) == (
        2, c.seq, W0, W0
    )
    # The next pass skips the prefix and still judges what follows.
    d = rig.persist(W1)
    e = rig.persist(W0)
    rig.pump()
    assert rig.live() == [a, c, e]
    assert d.evicted
    assert (st.scan_len, st.scan_seq) == (3, e.seq)


def test_store_coalesce_of_new_warp_bit_drops_prefix():
    rig = Rig()
    rig.hold_fsm(W0)
    held = rig.persist(W0)
    rig.dirty_line(held)
    rig.pump()
    assert rig.st.scan_len == 1

    def store(slot):
        outcome = rig.model.pm_store(
            rig.sm, SimpleNamespace(slot=slot), held.line_addr,
            {held.line_addr: slot + 1}, rig.system.now,
        )
        assert outcome.done

    store(0)  # a bit the entry already has: the prefix stands
    assert rig.st.scan_len == 1
    store(1)  # a new bit widens the hold
    assert held.warp_mask == W0 | W1
    assert rig.st.scan_len == 0
    later = rig.persist(W1)
    rig.pump()
    # W1 is now ordered behind the held entry: a stale hold (W0 only)
    # would have flushed it.
    assert rig.live() == [held, later]


def test_ofence_coalesce_into_held_tail_drops_prefix():
    rig = Rig()
    rig.hold_fsm(W0)
    held = rig.persist(W0)
    fence = rig.st.pb.append(EntryKind.OFENCE, W0)
    rig.pump()
    assert rig.live() == [held, fence]
    assert rig.st.scan_len == 2
    outcome = rig.model.ofence(rig.sm, SimpleNamespace(slot=1), rig.system.now)
    assert outcome.done and fence.warp_mask == W0 | W1
    assert rig.st.scan_len == 0
    later = rig.persist(W1)
    rig.pump()
    assert rig.live() == [held, fence, later]


def test_eviction_bypass_of_held_persist_drops_prefix():
    rig = Rig()
    rig.hold_fsm(W0)
    first = rig.persist(W0 | W1)  # FSM-held; holds W1 as well
    victim = rig.persist(W1 | W2)  # held through W1; adds W2
    later = rig.persist(W2)  # held only through the victim
    rig.pump()
    assert rig.st.scan_len == 3
    # Evict the victim's line: nothing orders it (no ordering entry
    # before it, no FSM bit), so it bypasses the FIFO.
    line = rig.dirty_line(victim)
    outcome = rig.model.evict_dirty_pm(
        rig.sm, SimpleNamespace(slot=2), line, rig.system.now
    )
    assert outcome.done and victim.evicted
    assert rig.st.scan_len == 0
    rig.pump()
    assert rig.live() == [first]
    assert later.evicted


def test_fsm_reset_at_actr_zero_drops_prefix():
    rig = Rig()
    rig.hold_fsm(W0)
    held = rig.persist(W0)
    rig.pump()
    assert rig.st.scan_len == 1
    rig.st.retire_ack(1e9)  # ACTR reaches zero: the FSM resets
    rig.pump()
    assert held.evicted and rig.live() == []


def test_traced_pass_rescans_from_head():
    rig = Rig(trace=True)
    rig.hold_fsm(W0)
    rig.persist(W0)
    rig.persist(W0)
    rig.pump()
    rig.pump()
    # Both passes report both held persists.
    assert rig.system.tracer.delay_counts["fsm"] == 4
