"""The Streaming Multiprocessor: warp scheduling and memory access.

An SM issues at most one warp-instruction per cycle (round-robin over
ready warps), owns a private non-coherent L1, and consults the system's
persistency model on every PM store, fence, scoped acquire/release, and
dirty-PM eviction — the integration points of the paper's Section 6
hardware.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.common.errors import SimulationError
from repro.memory.address_space import is_pm_addr
from repro.memory.backing import WORD_SIZE
from repro.memory.cache import CacheLine, L1Cache
from repro.gpu.ops import (
    AtomicAdd,
    BlockBarrier,
    Compute,
    DFence,
    Ld,
    OFence,
    Op,
    PAcq,
    PRel,
    St,
    ThreadFence,
)
from repro.gpu.warp import Warp, WarpState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpu.device import GPU

#: Stall-attribution category of each warp op (trace residency buckets).
_OP_CATEGORY = {
    Compute: "compute",
    Ld: "ld",
    St: "st",
    AtomicAdd: "atomic",
    OFence: "ofence",
    DFence: "dfence",
    PAcq: "pacq",
    PRel: "prel",
    ThreadFence: "threadfence",
    BlockBarrier: "barrier",
}


class SM:
    """One streaming multiprocessor."""

    #: L1 implementation to instantiate; the fast core swaps in
    #: :class:`~repro.gpu.fastcore.FastL1Cache` via this hook.
    l1_class = L1Cache

    def __init__(self, sm_id: int, gpu: "GPU") -> None:
        self.sm_id = sm_id
        self.gpu = gpu
        self.config = gpu.config
        self.engine = gpu.engine
        self.subsystem = gpu.subsystem
        self.backing = gpu.backing
        self.model = gpu.model
        self.stats = gpu.stats
        self.tracer = gpu.tracer
        self.metrics = gpu.metrics
        cfg = gpu.config.gpu
        self.l1 = self.l1_class(
            f"sm{sm_id}.l1", cfg.l1_size, cfg.line_size, cfg.l1_assoc, gpu.stats
        )
        self.line_size = cfg.line_size
        #: Per-SM flush counter name, precomputed (flush_line is hot).
        self.stat_pm_flushes = f"sm{sm_id}.pm_flushes"
        self.warps: Dict[int, Warp] = {}
        self._rr = 0
        self._next_issue_free = 0.0
        self._issue_pending = False
        self._barriers: Dict[int, List[Warp]] = {}
        self.model.init_sm(self)

    # ------------------------------------------------------------------
    # warp lifecycle
    # ------------------------------------------------------------------
    def warp_track(self, warp: Warp) -> str:
        """Trace-track name of a warp slot (``sm0.w03``)."""
        return f"sm{self.sm_id}.w{warp.slot:02d}"

    def add_warp(self, warp: Warp, now: float) -> None:
        if warp.slot in self.warps:
            raise SimulationError(f"warp slot {warp.slot} already occupied")
        warp.ready_time = now
        self.warps[warp.slot] = warp
        if self.tracer.enabled:
            self.tracer.warp_begin(self.warp_track(warp), now)
        self.kick(now)

    def remove_block(self, block_key: int) -> None:
        """Free the warp slots of a finished block."""
        for slot in [s for s, w in self.warps.items() if w.block_key == block_key]:
            del self.warps[slot]

    def close(self) -> None:
        """Finish suspended kernels: their frames may reference the
        machine (a kernel closure over its ``GPUSystem``)."""
        for warp in self.warps.values():
            warp.gen.close()

    def active_warps(self) -> int:
        return sum(1 for w in self.warps.values() if w.state is not WarpState.DONE)

    # ------------------------------------------------------------------
    # issue machinery
    # ------------------------------------------------------------------
    def kick(self, now: float) -> None:
        """Ensure an issue event will fire when a warp can issue."""
        if self._issue_pending:
            return
        ready_times = [
            w.ready_time for w in self.warps.values() if w.state is WarpState.READY
        ]
        if not ready_times:
            return
        when = max(now, min(ready_times), self._next_issue_free)
        self._issue_pending = True
        self.engine.schedule(when, self._on_issue)

    def _on_issue(self, now: float) -> None:
        self._issue_pending = False
        if now < self._next_issue_free:
            self.kick(now)
            return
        warp = self._pick_warp(now)
        if warp is None:
            self.kick(now)
            return
        self._next_issue_free = now + 1.0 / self.config.gpu.issue_width
        self._execute(warp, now)
        self.kick(now)

    def _pick_warp(self, now: float) -> Optional[Warp]:
        slots = sorted(self.warps)
        if not slots:
            return None
        n = len(slots)
        for i in range(n):
            slot = slots[(self._rr + i) % n]
            warp = self.warps[slot]
            if warp.state is WarpState.READY and warp.ready_time <= now:
                self._rr = (self._rr + i + 1) % n
                return warp
        return None

    def wake_warp(self, warp: Warp, at: float, send: object = None) -> None:
        """Unblock *warp* at time *at*, re-processing its pending op
        (persistency models call this for stall-and-retry wakes)."""
        warp.state = WarpState.READY
        warp.ready_time = at
        if send is not None:
            warp.send_value = send
        if self.tracer.enabled:
            # Close the blocked op's interval: cycles up to the wake are
            # attributed to the stalling op, after it to the scheduler.
            self.tracer.warp_phase(self.warp_track(warp), "sched", at)
        self.kick(self.engine.now)

    def complete_blocked(self, warp: Warp, at: float, send: object = None) -> None:
        """Unblock *warp* with its pending op *finished* — the generator
        resumes instead of retrying (device-scope pRel / dFence)."""
        warp.retry_op = None
        self.wake_warp(warp, at, send)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _execute(self, warp: Warp, now: float) -> None:
        if warp.retry_op is not None:
            op = warp.retry_op
        else:
            op = self._advance(warp)
            if op is None:
                self._warp_done(warp, now)
                return
        self.stats.add("sm.instructions")
        if self.tracer.enabled:
            self.tracer.warp_phase(
                self.warp_track(warp), _OP_CATEGORY.get(type(op), "sched"), now
            )
        self._process(warp, op, now)

    def _advance(self, warp: Warp) -> Optional[Op]:
        try:
            op = warp.gen.send(warp.send_value)
        except StopIteration:
            return None
        warp.send_value = None
        return op

    def _warp_done(self, warp: Warp, now: float) -> None:
        warp.state = WarpState.DONE
        if self.tracer.enabled:
            self.tracer.warp_end(self.warp_track(warp), now)
        if self.metrics.enabled:
            self.metrics.inc("sm.warps_retired")
            self.metrics.observe("sm.active_warps", float(self.active_warps()))
        self.gpu.on_warp_done(self, warp, now)

    def _complete(self, warp: Warp, now: float, at: float, send: object = None) -> None:
        warp.retry_op = None
        warp.state = WarpState.READY
        warp.ready_time = max(at, now + 1)
        if send is not None:
            warp.send_value = send
        if self.tracer.enabled:
            # The op occupied [issue, ready); what follows is scheduling.
            self.tracer.warp_phase(self.warp_track(warp), "sched", warp.ready_time)

    def _block(self, warp: Warp, op: Op) -> None:
        """Stall the warp; the persistency model will wake it and the op
        will be re-processed from where it left off."""
        warp.state = WarpState.BLOCKED
        warp.retry_op = op

    # ------------------------------------------------------------------
    # op dispatch
    # ------------------------------------------------------------------
    def _process(self, warp: Warp, op: Op, now: float) -> None:
        if isinstance(op, Compute):
            self._complete(warp, now, now + op.cycles)
        elif isinstance(op, Ld):
            self._process_load(warp, op, now)
        elif isinstance(op, St):
            self._process_store(warp, op, now)
        elif isinstance(op, AtomicAdd):
            self._process_atomic(warp, op, now)
        elif isinstance(op, OFence):
            self._model_call(warp, op, self.model.ofence(self, warp, now), now)
        elif isinstance(op, DFence):
            self._model_call(warp, op, self.model.dfence(self, warp, now), now)
        elif isinstance(op, PAcq):
            self._process_pacq(warp, op, now)
        elif isinstance(op, PRel):
            outcome = self.model.prel(self, warp, op.addr, op.value, op.scope, now)
            self._model_call(warp, op, outcome, now)
        elif isinstance(op, ThreadFence):
            outcome = self.model.threadfence(self, warp, op.scope, now)
            self._model_call(warp, op, outcome, now)
        elif isinstance(op, BlockBarrier):
            self._process_barrier(warp, now)
        else:
            raise SimulationError(f"unknown op {op!r}")

    def _model_call(self, warp: Warp, op: Op, outcome, now: float) -> None:
        if outcome.done:
            self._complete(warp, now, outcome.at)
        else:
            self._block(warp, op)

    # ------------------------------------------------------------------
    # loads
    # ------------------------------------------------------------------
    def _process_load(self, warp: Warp, op: Ld, now: float) -> None:
        addrs = op.addrs[op.mask]
        if addrs.size == 0:
            self._complete(warp, now, now + 1, np.zeros_like(op.addrs))
            return
        latest = float(now)
        lines_seen = set()
        for addr in addrs:
            line_addr = int(addr) - (int(addr) % self.line_size)
            if line_addr in lines_seen:
                continue
            lines_seen.add(line_addr)
            done_at = self._access_line_for_read(warp, op, line_addr, now)
            if done_at is None:
                return  # blocked on an eviction; op will retry
            latest = max(latest, done_at)
        values = np.zeros(op.addrs.shape, dtype=np.int64)
        for i in range(op.addrs.shape[0]):
            if not op.mask[i]:
                continue
            values[i] = self._read_word(int(op.addrs[i]), now)
        self._complete(warp, now, latest, values)

    def _access_line_for_read(
        self, warp: Warp, op: Ld, line_addr: int, now: float
    ) -> Optional[float]:
        """Timing of making *line_addr* readable; None when blocked."""
        is_pm = is_pm_addr(line_addr)
        kind = "pm" if is_pm else "vol"
        line = self.l1.lookup(line_addr, now)
        if line is not None:
            self.stats.add(f"l1.read_hit_{kind}")
            return now + self.config.gpu.l1_hit_latency
        self.stats.add(f"l1.read_miss_{kind}")
        victim = self.l1.victim_for(line_addr)
        if victim.valid and victim.dirty and victim.is_pm:
            outcome = self.model.evict_dirty_pm(self, warp, victim, now)
            if not outcome.done:
                self._block(warp, op)
                return None
        ready = self.subsystem.fetch_line(now, line_addr, is_pm)
        words = self._snapshot_line(line_addr) if is_pm else None
        self.l1.fill(victim, line_addr, is_pm, words, now)
        return ready

    def _snapshot_line(self, line_addr: int) -> Dict[int, int]:
        """Copy the visible image's words for one PM line (a fetched line
        carries data that may later go stale if another SM updates it)."""
        words: Dict[int, int] = {}
        for offset in range(0, self.line_size, WORD_SIZE):
            addr = line_addr + offset
            if addr in self.backing.visible:
                words[addr] = self.backing.visible[addr]
        return words

    def _read_word(self, addr: int, now: float) -> int:
        if is_pm_addr(addr):
            line = self.l1.lookup(addr - addr % self.line_size, now)
            if line is not None and addr in line.words:
                return line.words[addr]
        return self.backing.read(addr)

    # ------------------------------------------------------------------
    # stores
    # ------------------------------------------------------------------
    def _process_store(self, warp: Warp, op: St, now: float) -> None:
        if op.pm_lines is None:
            self._split_store(op)
        # Volatile half: write-through, fire-and-forget.
        if op.vol_words:
            for addr, value in op.vol_words.items():
                self.backing.write(addr, value)
                self.stats.add("store.vol_words")
            for line_addr in op.vol_lines:
                self.subsystem.write_volatile(now, line_addr, self.line_size)
            op.vol_words = {}
        # PM half: one model call per line, resumable on stalls.
        latest = float(now)
        pm_lines: Dict[int, Dict[int, int]] = op.pm_lines
        while pm_lines:
            line_addr = next(iter(pm_lines))
            words = pm_lines[line_addr]
            outcome = self.model.pm_store(self, warp, line_addr, words, now)
            if not outcome.done:
                self._block(warp, op)
                return
            del pm_lines[line_addr]
            self.stats.add("store.pm_lines")
            latest = max(latest, outcome.at)
        self._complete(warp, now, latest)

    def _split_store(self, op: St) -> None:
        """Partition a store's lanes into volatile words and PM lines."""
        pm_lines: Dict[int, Dict[int, int]] = {}
        vol_words: Dict[int, int] = {}
        vol_lines = set()
        for i in range(op.addrs.shape[0]):
            if not op.mask[i]:
                continue
            addr = int(op.addrs[i])
            value = int(op.values[i])
            if is_pm_addr(addr):
                line_addr = addr - addr % self.line_size
                pm_lines.setdefault(line_addr, {})[addr] = value
            else:
                vol_words[addr] = value
                vol_lines.add(addr - addr % self.line_size)
        op.pm_lines = pm_lines
        op.vol_words = vol_words
        op.vol_lines = vol_lines

    # ------------------------------------------------------------------
    # atomics
    # ------------------------------------------------------------------
    def _process_atomic(self, warp: Warp, op: AtomicAdd, now: float) -> None:
        olds = np.zeros(op.addrs.shape, dtype=np.int64)
        unique = set()
        for i in range(op.addrs.shape[0]):
            if not op.mask[i]:
                continue
            addr = int(op.addrs[i])
            if is_pm_addr(addr):
                raise SimulationError(
                    "atomics to PM are not supported; keep synchronization "
                    "variables in volatile memory"
                )
            old = self.backing.read(addr)
            self.backing.write(addr, old + int(op.values[i]))
            olds[i] = old
            unique.add(addr)
        done = now + self.config.gpu.l2_latency + 2 * max(1, len(unique))
        self.stats.add("sm.atomics", len(unique))
        self._complete(warp, now, done, olds)

    # ------------------------------------------------------------------
    # acquires
    # ------------------------------------------------------------------
    def _process_pacq(self, warp: Warp, op: PAcq, now: float) -> None:
        value = self.backing.read(op.addr)
        outcome = self.model.pacq(self, warp, op.addr, op.scope, value, now)
        if not outcome.done:
            self._block(warp, op)
            return
        at = outcome.at
        if value == 0:
            # Failed acquire attempt: back off before the kernel respins,
            # so spin loops do not saturate the issue port.
            at = max(at, now + self.config.gpu.spin_backoff_cycles)
            self.stats.add("sm.pacq_spins")
        self._complete(warp, now, at, int(value))
        if op.until is not None and value < op.until:
            # Spin in place: the next issue re-runs this op, and the
            # kernel resumes only with the value that ends the spin.
            warp.retry_op = op

    # ------------------------------------------------------------------
    # block barrier
    # ------------------------------------------------------------------
    def _process_barrier(self, warp: Warp, now: float) -> None:
        waiting = self._barriers.setdefault(warp.block_key, [])
        waiting.append(warp)
        expected = sum(
            1
            for w in self.warps.values()
            if w.block_key == warp.block_key and w.state is not WarpState.DONE
        )
        if len(waiting) < expected:
            warp.state = WarpState.AT_BARRIER
            return
        del self._barriers[warp.block_key]
        for w in waiting:
            w.state = WarpState.READY
            w.ready_time = now + 1
            w.retry_op = None
            if self.tracer.enabled:
                self.tracer.warp_phase(self.warp_track(w), "sched", now + 1)
        self.kick(now)
