"""The fast timing core: drop-in SM and L1 replacements.

``FastSM``/``FastL1Cache`` implement exactly the semantics of
:class:`~repro.gpu.sm.SM` / :class:`~repro.memory.cache.L1Cache` with the
per-lane Python overhead stripped out:

* lane loops iterate plain ``list``s (``ndarray.tolist()``) instead of
  extracting numpy scalars one ``int(arr[i])`` at a time;
* the L1 adds a tag->line dict beside the set-associative ways, turning
  the per-line way scan into one dict probe (LRU state is still kept on
  the lines, so victim choice is unchanged);
* op dispatch is a type-keyed dict instead of an ``isinstance`` chain;
* the scheduler's sorted warp-slot list is cached between occupancy
  changes;
* hot stats names are precomputed (no per-access f-strings).

None of this may change *results*: every optimization is constant-factor
over the same event graph, and the differential harness
(``repro.perfcore``) plus the golden traces (``tests/perfcore``) hold the
fast path to cycle- and stat-identical output against the retained
reference implementation.
"""

from __future__ import annotations

from heapq import heappush
from itertools import repeat
from typing import Dict, List, Optional

import numpy as np

from repro.common.errors import SimulationError
from repro.memory.address_space import PM_BASE
from repro.memory.backing import WORD_SIZE, check_word_aligned
from repro.memory.cache import CacheLine, L1Cache
from repro.gpu.ops import (
    _FULL_MASKS,
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
from repro.gpu.sm import _OP_CATEGORY, SM
from repro.gpu.warp import Warp, WarpState

_READ_HIT = ("l1.read_hit_vol", "l1.read_hit_pm")
_READ_MISS = ("l1.read_miss_vol", "l1.read_miss_pm")
_READY = WarpState.READY

#: C-level OR-fold over a lane-address vector.  The OR of all addresses
#: has a low bit set iff *some* address is word-misaligned (WORD_SIZE is
#: a power of two), so one reduction replaces a per-lane `% WORD_SIZE`
#: scan in the aligned-load fast path.
_or_reduce = np.bitwise_or.reduce
_ALIGN_MASK = WORD_SIZE - 1


class FastL1Cache(L1Cache):
    """Set-associative L1 with a tag map for O(1) lookups.

    Invariant: ``_map[T] is line`` implies ``line.tag == T`` — ``fill``
    is the only place a tag changes, and it removes the victim's old
    mapping before recording the new one; single-line invalidations go
    through ``drop_line`` so the mapping dies with the tag.  A mapped
    line may still be *invalid*, so every consumer filters on
    ``line.valid`` — the same validity test the reference way-scan
    applies; only iteration cost changes.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._map: Dict[int, CacheLine] = {}
        #: Set-major way position of each allocated line, for restoring
        #: the reference sweep order after a map-based collection.
        self._pos: Dict[int, int] = {}

    def _allocate_way(self, index: int, ways: List[CacheLine]) -> CacheLine:
        line = super()._allocate_way(index, ways)
        self._pos[id(line)] = index * self.assoc + len(ways) - 1
        return line

    def lookup(self, line_addr: int, now: float = 0.0) -> Optional[CacheLine]:
        line = self._map.get(line_addr)
        if line is not None and line.valid:
            line.last_use = now
            return line
        return None

    def fill(
        self,
        line: CacheLine,
        line_addr: int,
        is_pm: bool,
        words: Optional[Dict[int, int]] = None,
        now: float = 0.0,
    ) -> None:
        tag_map = self._map
        old_tag = line.tag
        if old_tag != line_addr and tag_map.get(old_tag) is line:
            del tag_map[old_tag]
        super().fill(line, line_addr, is_pm, words, now)
        tag_map[line_addr] = line

    def drop_line(self, line: CacheLine) -> None:
        # Prune before reset wipes the tag — otherwise a later fill of
        # this way under a new tag leaves the old mapping dangling.
        if self._map.get(line.tag) is line:
            del self._map[line.tag]
        line.reset()

    # ------------------------------------------------------------------
    # whole-cache sweeps: visit only mapped lines.  Every valid line has
    # a current map entry (``fill`` prunes the victim's old tag), so
    # filtering invalid leftovers reproduces the reference full-scan
    # exactly; only iteration cost changes.
    # ------------------------------------------------------------------
    def _resident(self) -> List[CacheLine]:
        return [line for line in self._map.values() if line.valid]

    def invalidate_clean_pm(self) -> int:
        dropped = 0
        for line in self._resident():
            if line.is_pm and not line.dirty:
                line.reset()
                dropped += 1
        if dropped:
            self._map = {t: l for t, l in self._map.items() if l.valid}
        return dropped

    def invalidate_pm(self) -> int:
        dropped = 0
        for line in self._resident():
            if line.is_pm:
                line.reset()
                dropped += 1
        if dropped:
            self._map = {t: l for t, l in self._map.items() if l.valid}
        return dropped

    def invalidate_all(self) -> int:
        dropped = 0
        for line in self._resident():
            line.reset()
            dropped += 1
        self._map.clear()
        return dropped

    def dirty_pm_lines(self) -> List[CacheLine]:
        # The reference returns set-major way order; flush order decides
        # event order, so restore it by the precomputed position index.
        lines = [
            line
            for line in self._map.values()
            if line.valid and line.dirty and line.is_pm
        ]
        if len(lines) > 1:
            pos = self._pos
            lines.sort(key=lambda line: pos[id(line)])
        return lines

    def occupancy(self) -> int:
        return len(self._resident())


class FastSM(SM):
    """SM with list-based lane loops and dict-based dispatch."""

    l1_class = FastL1Cache

    def __init__(self, sm_id: int, gpu) -> None:
        super().__init__(sm_id, gpu)
        cfg = gpu.config.gpu
        self._hit_latency = cfg.l1_hit_latency
        self._l2_latency = cfg.l2_latency
        self._issue_quantum = 1.0 / cfg.issue_width
        #: Failed-spin completion delta: max of the reference's three
        #: ``now + const`` candidates (flag-load latency, spin backoff,
        #: the 1-cycle floor in ``_complete``) — identical float result
        #: because x -> now + x is monotone over these ints.
        self._spin_delta = max(cfg.l1_hit_latency, cfg.spin_backoff_cycles, 1)
        self._stats_add = self.stats.add
        # Counter dict bound directly: the registry's add() is a pure
        # ``defaultdict[name] += amount``, so hot paths skip the call.
        self._counters = self.stats._counters
        self._slots_cache: Optional[List[int]] = None
        #: Warp objects in slot order, rebuilt with the slot cache: the
        #: RR scan and the kick min-scan index it without dict probes.
        self._warps_cache: List[Warp] = []
        #: Bound once: the issue event pushed on every kick.
        self._issue_cb = self._on_issue

    # ------------------------------------------------------------------
    # scheduling: cache the sorted slot list between occupancy changes
    # ------------------------------------------------------------------
    def add_warp(self, warp: Warp, now: float) -> None:
        self._slots_cache = None
        super().add_warp(warp, now)

    def remove_block(self, block_key: int) -> None:
        self._slots_cache = None
        super().remove_block(block_key)

    def close(self) -> None:
        super().close()
        self._issue_cb = None  # a bound method: SM -> itself

    def kick(self, now: float) -> None:
        if self._issue_pending:
            return
        # when = max(now, next issue slot, earliest ready time): a ready
        # warp at or before the first two terms already fixes it, so the
        # min-scan stops there.
        floor = self._next_issue_free
        if now > floor:
            floor = now
        best = None
        for w in self.warps.values():
            if w.state is _READY:
                rt = w.ready_time
                if rt <= floor:
                    best = floor
                    break
                if best is None or rt < best:
                    best = rt
        if best is None:
            return
        when = best if best > now else now
        if self._next_issue_free > when:
            when = self._next_issue_free
        self._issue_pending = True
        # Inlined FastEngine.schedule (FastSM always runs on FastEngine:
        # ``device.py`` selects both from the same config switch).
        engine = self.engine
        engine._seq += 1
        if when <= engine.now:
            engine._fifo.append((engine.now, engine._seq, self._issue_cb))
        else:
            heappush(engine._queue, (when, engine._seq, self._issue_cb))

    def _warp_list(self) -> List[Warp]:
        if self._slots_cache is None:
            warps = self.warps
            self._slots_cache = slots = sorted(warps)
            self._warps_cache = [warps[slot] for slot in slots]
        return self._warps_cache

    def _on_issue(self, now: float) -> None:
        """Fused issue path: pick + execute + dispatch in one frame.

        Behaviourally identical to the reference
        ``_on_issue``/``_execute``/``_advance`` chain — same warp choice,
        same stats, same trace calls, same re-``kick`` — just without the
        intermediate call frames.
        """
        self._issue_pending = False
        if now < self._next_issue_free:
            self.kick(now)
            return
        if self._slots_cache is None:
            self._warp_list()
        wl = self._warps_cache
        warp = None
        n = len(wl)
        if n:
            # Round-robin from the slot after the last issuer: the tail
            # of the slot list, then its head.
            rr = self._rr
            if rr >= n:
                rr %= n
            for i in range(rr, n):
                w = wl[i]
                if w.state is _READY and w.ready_time <= now:
                    warp = w
                    break
            else:
                for i in range(rr):
                    w = wl[i]
                    if w.state is _READY and w.ready_time <= now:
                        warp = w
                        break
        if warp is None:
            self.kick(now)
            return
        self._rr = (i + 1) % n
        self._next_issue_free = now + self._issue_quantum
        op = warp.retry_op
        if op is None:
            try:
                op = warp.gen.send(warp.send_value)
            except StopIteration:
                self._warp_done(warp, now)
                self.kick(now)
                return
            warp.send_value = None
        self._counters["sm.instructions"] += 1.0
        if self.tracer.enabled:
            self.tracer.warp_phase(
                self.warp_track(warp), _OP_CATEGORY.get(type(op), "sched"), now
            )
        cls = op.__class__
        if cls is Compute:
            # The most common op, fully inlined: identical to
            # ``_complete(warp, now, now + op.cycles)``.
            warp.retry_op = None
            warp.state = WarpState.READY
            at = now + op.cycles
            n1 = now + 1
            warp.ready_time = at if at > n1 else n1
            if self.tracer.enabled:
                self.tracer.warp_phase(
                    self.warp_track(warp), "sched", warp.ready_time
                )
        else:
            handler = _DISPATCH.get(cls)
            if handler is None:
                SM._process(self, warp, op, now)  # unknown-op error path
            else:
                handler(self, warp, op, now)
        # Trailing kick(), inlined: runs once per issued instruction.
        # The next issue slot is past now, so a warp ready by then fixes
        # ``when`` and ends the scan.
        if self._issue_pending:
            return
        nif = self._next_issue_free
        best = None
        for w in wl:
            if w.state is _READY:
                rt = w.ready_time
                if rt <= nif:
                    best = nif
                    break
                if best is None or rt < best:
                    best = rt
        if best is None:
            return
        when = best if best > now else now
        if nif > when:
            when = nif
        self._issue_pending = True
        engine = self.engine
        engine._seq += 1
        if when <= engine.now:
            engine._fifo.append((engine.now, engine._seq, self._issue_cb))
        else:
            heappush(engine._queue, (when, engine._seq, self._issue_cb))

    # ------------------------------------------------------------------
    # op dispatch
    # ------------------------------------------------------------------
    def _process(self, warp: Warp, op: Op, now: float) -> None:
        handler = _DISPATCH.get(op.__class__)
        if handler is None:
            super()._process(warp, op, now)  # unknown-op error path
            return
        handler(self, warp, op, now)

    def _complete(
        self, warp: Warp, now: float, at: float, send: object = None
    ) -> None:
        # Same values as the reference (max() unrolled).
        warp.retry_op = None
        warp.state = WarpState.READY
        n1 = now + 1
        warp.ready_time = at if at > n1 else n1
        if send is not None:
            warp.send_value = send
        if self.tracer.enabled:
            self.tracer.warp_phase(self.warp_track(warp), "sched", warp.ready_time)

    def _proc_compute(self, warp: Warp, op: Compute, now: float) -> None:
        self._complete(warp, now, now + op.cycles)

    def _proc_ofence(self, warp: Warp, op: OFence, now: float) -> None:
        self._model_call(warp, op, self.model.ofence(self, warp, now), now)

    def _proc_dfence(self, warp: Warp, op: DFence, now: float) -> None:
        self._model_call(warp, op, self.model.dfence(self, warp, now), now)

    def _proc_prel(self, warp: Warp, op: PRel, now: float) -> None:
        outcome = self.model.prel(self, warp, op.addr, op.value, op.scope, now)
        self._model_call(warp, op, outcome, now)

    def _proc_threadfence(self, warp: Warp, op: ThreadFence, now: float) -> None:
        outcome = self.model.threadfence(self, warp, op.scope, now)
        self._model_call(warp, op, outcome, now)

    def _proc_barrier(self, warp: Warp, op: BlockBarrier, now: float) -> None:
        self._process_barrier(warp, now)

    # ------------------------------------------------------------------
    # acquires
    # ------------------------------------------------------------------
    def _process_pacq(self, warp: Warp, op: PAcq, now: float) -> None:
        addr = op.addr
        if addr & _ALIGN_MASK:
            self.backing.read(addr)  # raises: misaligned flag address
        value = self.backing.visible.get(addr, 0)
        if value == 0:
            # Failed spin attempt.  Every model prices this at the flag
            # load's L1 hit latency with no side effects (epoch/GPM and
            # SBRP both return early before touching model state), so
            # the model call is skipped outright and the reference
            # backoff/complete arithmetic collapses to one add.
            self._counters["sm.pacq_spins"] += 1.0
            until = op.until
            warp.retry_op = op if until is not None and until > 0 else None
            warp.state = _READY
            warp.ready_time = now + self._spin_delta
            warp.send_value = 0
            if self.tracer.enabled:
                self.tracer.warp_phase(
                    self.warp_track(warp), "sched", warp.ready_time
                )
            return
        outcome = self.model.pacq(self, warp, addr, op.scope, value, now)
        if not outcome.done:
            self._block(warp, op)
            return
        self._complete(warp, now, outcome.at, value)
        if op.until is not None and value < op.until:
            warp.retry_op = op  # stale read: keep spinning in place

    # ------------------------------------------------------------------
    # loads
    # ------------------------------------------------------------------
    def _process_load(self, warp: Warp, op: Ld, now: float) -> None:
        addrs = op.addrs.tolist()
        line_size = self.line_size
        mask_arr = op.mask
        if mask_arr is _FULL_MASKS.get(len(addrs)):
            # Ops built with the default mask carry the interned
            # full-mask array: skip the tolist + membership scans.
            mask = None
            active_addrs = addrs
        else:
            mask = mask_arr.tolist()
            if False not in mask:
                active_addrs = addrs
            elif True in mask:
                active_addrs = [a for a, m in zip(addrs, mask) if m]
            else:
                self._complete(warp, now, now + 1, np.zeros_like(op.addrs))
                return
        # dict.fromkeys preserves first-encounter order == the order the
        # reference per-lane scan accesses lines in.  Single-line loads
        # (coalesced: min and max fall in the same line) skip the
        # per-lane line-address comprehension.
        mn = min(active_addrs)
        mx = max(active_addrs)
        first_line = mn - mn % line_size
        if mx - mx % line_size == first_line:
            line_addrs = (first_line,)
        else:
            line_addrs = dict.fromkeys(
                [a - a % line_size for a in active_addrs]
            )
        latest = now
        l1 = self.l1
        line_map = l1._map
        counters = self._counters
        model = self.model
        for line_addr in line_addrs:
            # Inlined _access_line_for_read: hit probe, miss fill, or
            # block on a dirty-PM eviction (op retries from scratch).
            line = line_map.get(line_addr)
            if line is not None and line.valid:
                line.last_use = now
                counters[_READ_HIT[line_addr >= PM_BASE]] += 1.0
                done_at = now + self._hit_latency
            else:
                is_pm = line_addr >= PM_BASE
                counters[_READ_MISS[is_pm]] += 1.0
                victim = l1.victim_for(line_addr)
                if victim.valid and victim.dirty and victim.is_pm:
                    outcome = model.evict_dirty_pm(self, warp, victim, now)
                    if not outcome.done:
                        self._block(warp, op)
                        return
                done_at = self.subsystem.fetch_line(now, line_addr, is_pm)
                words = self._snapshot_line(line_addr) if is_pm else None
                l1.fill(victim, line_addr, is_pm, words, now)
            if done_at > latest:
                latest = done_at
        vget = self.backing.visible.get
        if active_addrs is addrs and not int(_or_reduce(op.addrs)) & _ALIGN_MASK:
            # Full mask, all aligned: comprehension-only value phase.
            # (Reference raises on misalignment, so that case must take
            # the general per-lane path below.)
            if len(line_addrs) == 1:
                la = first_line
                if la < PM_BASE:
                    values = list(map(vget, addrs, repeat(0)))
                    self._complete(
                        warp, now, latest, np.array(values, dtype=np.int64)
                    )
                    return
                line = line_map.get(la)
                if line is not None and line.valid:
                    words = line.words
                    if len(words) == line_size // WORD_SIZE:
                        # Fully populated snapshot: plain C-speed gets.
                        values = list(map(words.__getitem__, addrs))
                    elif not words:
                        # Fully absent (fresh PM region): all fallback.
                        values = list(map(vget, addrs, repeat(0)))
                    else:
                        values = [
                            words[a] if a in words else vget(a, 0)
                            for a in addrs
                        ]
                    self._complete(
                        warp, now, latest, np.array(values, dtype=np.int64)
                    )
                    return
            elif max(line_addrs) < PM_BASE:
                values = list(map(vget, addrs, repeat(0)))
                self._complete(warp, now, latest, np.array(values, dtype=np.int64))
                return
        values = [0] * len(addrs)
        if mask is None:
            mask = mask_arr.tolist()
        for i, active in enumerate(mask):
            if not active:
                continue
            addr = addrs[i]
            if addr >= PM_BASE:
                line_addr = addr - addr % line_size
                line = line_map.get(line_addr)
                if line is not None and line.valid:
                    words = line.words
                    if addr in words:
                        values[i] = words[addr]
                        continue
            if addr % WORD_SIZE:
                check_word_aligned(addr)
            values[i] = vget(addr, 0)
        self._complete(warp, now, latest, np.array(values, dtype=np.int64))

    def _snapshot_line(self, line_addr: int) -> Dict[int, int]:
        rng = range(line_addr, line_addr + self.line_size, WORD_SIZE)
        # map() runs the .get probes at C speed; absent words come back
        # None and are dropped, matching the reference's presence test.
        return {
            addr: value
            for addr, value in zip(rng, map(self.backing.visible.get, rng))
            if value is not None
        }

    def _read_word(self, addr: int, now: float) -> int:
        if addr >= PM_BASE:
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
        vol_words = op.vol_words
        if vol_words:
            visible = self.backing.visible
            for addr in vol_words:
                if addr % WORD_SIZE:
                    check_word_aligned(addr)
            visible.update(vol_words)
            self._stats_add("store.vol_words", len(vol_words))
            write_volatile = self.subsystem.write_volatile
            line_size = self.line_size
            for line_addr in op.vol_lines:
                write_volatile(now, line_addr, line_size)
            op.vol_words = {}
        latest = now
        pm_lines: Dict[int, Dict[int, int]] = op.pm_lines
        while pm_lines:
            line_addr = next(iter(pm_lines))
            words = pm_lines[line_addr]
            outcome = self.model.pm_store(self, warp, line_addr, words, now)
            if not outcome.done:
                self._block(warp, op)
                return
            del pm_lines[line_addr]
            self._stats_add("store.pm_lines")
            if outcome.at > latest:
                latest = outcome.at
        self._complete(warp, now, latest)

    def _split_store(self, op: St) -> None:
        line_size = self.line_size
        addrs = op.addrs.tolist()
        values = op.values.tolist()
        mask_arr = op.mask
        if mask_arr is _FULL_MASKS.get(len(addrs)):
            mask = ()
            full = True
        else:
            mask = mask_arr.tolist()
            full = False not in mask
        if full:
            # All lanes active: uniform-space fast paths.  Insertion
            # orders (dict / set built in lane order) match the
            # reference's per-lane loop exactly.
            mn = min(addrs)
            mx = max(addrs)
            if mn >= PM_BASE:
                first_line = mn - mn % line_size
                if mx - mx % line_size == first_line:
                    # Coalesced single-line store: one C-speed zip.
                    op.pm_lines = {first_line: dict(zip(addrs, values))}
                    op.vol_words = {}
                    op.vol_lines = set()
                    return
                pm_lines: Dict[int, Dict[int, int]] = {}
                for addr, value in zip(addrs, values):
                    line_addr = addr - addr % line_size
                    line = pm_lines.get(line_addr)
                    if line is None:
                        pm_lines[line_addr] = {addr: value}
                    else:
                        line[addr] = value
                op.pm_lines = pm_lines
                op.vol_words = {}
                op.vol_lines = set()
                return
            if mx < PM_BASE:
                op.pm_lines = {}
                op.vol_words = dict(zip(addrs, values))
                op.vol_lines = {a - a % line_size for a in addrs}
                return
        pm_lines = {}
        vol_words: Dict[int, int] = {}
        vol_lines = set()
        if full:  # mixed-space full store: every lane is active
            mask = repeat(True)
        for addr, value, active in zip(addrs, values, mask):
            if not active:
                continue
            if addr >= PM_BASE:
                line_addr = addr - addr % line_size
                line = pm_lines.get(line_addr)
                if line is None:
                    pm_lines[line_addr] = {addr: value}
                else:
                    line[addr] = value
            else:
                vol_words[addr] = value
                vol_lines.add(addr - addr % line_size)
        op.pm_lines = pm_lines
        op.vol_words = vol_words
        op.vol_lines = vol_lines

    # ------------------------------------------------------------------
    # atomics
    # ------------------------------------------------------------------
    def _process_atomic(self, warp: Warp, op: AtomicAdd, now: float) -> None:
        addrs = op.addrs.tolist()
        values = op.values.tolist()
        olds = [0] * len(addrs)
        unique = set()
        visible = self.backing.visible
        mask_arr = op.mask
        if mask_arr is _FULL_MASKS.get(len(addrs)):
            mask = (True,) * len(addrs)
        else:
            mask = mask_arr.tolist()
        for i, active in enumerate(mask):
            if not active:
                continue
            addr = addrs[i]
            if addr >= PM_BASE:
                raise SimulationError(
                    "atomics to PM are not supported; keep synchronization "
                    "variables in volatile memory"
                )
            if addr % WORD_SIZE:
                check_word_aligned(addr)
            old = visible.get(addr, 0)
            visible[addr] = old + values[i]
            olds[i] = old
            unique.add(addr)
        done = now + self._l2_latency + 2 * max(1, len(unique))
        self._stats_add("sm.atomics", len(unique))
        self._complete(warp, now, done, np.array(olds, dtype=np.int64))


_DISPATCH = {
    Compute: FastSM._proc_compute,
    Ld: FastSM._process_load,
    St: FastSM._process_store,
    AtomicAdd: FastSM._process_atomic,
    OFence: FastSM._proc_ofence,
    DFence: FastSM._proc_dfence,
    PAcq: FastSM._process_pacq,
    PRel: FastSM._proc_prel,
    ThreadFence: FastSM._proc_threadfence,
    BlockBarrier: FastSM._proc_barrier,
}
