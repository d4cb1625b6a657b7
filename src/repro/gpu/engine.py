"""Discrete-event simulation engine.

A single binary heap of ``(time, seq, callback)`` drives the whole
system.  Components schedule callbacks; the engine pops them in time
order until the queue empties or a cycle budget is exceeded.

A *watchdog* guards against livelocks that the cycle budget would take
minutes of wall-clock time to reach (a spin loop advances simulated time
only ~40 cycles per event).  Progress sources — persist flushes, warp
retirements — call :meth:`Engine.note_progress`; if a bounded number of
events elapse without any, the engine raises
:class:`~repro.common.errors.LivelockError` carrying queue-depth
diagnostics instead of spinning until the pool timeout kills the
process.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.common.errors import LivelockError, SimulationError
from repro.common.stats import StatsRegistry
from repro.metrics.registry import NULL_METRICS, MetricsRegistry

EventFn = Callable[[float], None]

#: Queue-depth sampling stride with metrics enabled: one histogram
#: observation every this-many events keeps the cost invisible while the
#: sample set stays a deterministic function of the event sequence.
_QUEUE_SAMPLE_MASK = 4095

#: Default watchdog bound: events processed without a single progress
#: signal before the run is declared livelocked.  Generous — real
#: workloads flush a persist or retire a warp far more often than this —
#: while a wedged spin loop reaches it in seconds of wall-clock time.
DEFAULT_WATCHDOG_EVENTS = 2_000_000


class Engine:
    """Time-ordered event queue with a hard cycle budget."""

    def __init__(
        self,
        max_cycles: float = 2e9,
        stats: Optional[StatsRegistry] = None,
        watchdog_events: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.now: float = 0.0
        self.max_cycles = max_cycles
        self.stats = stats
        self.metrics = metrics if metrics is not None else NULL_METRICS
        #: Events without progress before :class:`LivelockError`;
        #: ``0`` disables the watchdog.
        self.watchdog_events = (
            DEFAULT_WATCHDOG_EVENTS if watchdog_events is None else watchdog_events
        )
        #: Optional callback returning queue depths for livelock
        #: diagnostics (the GPU layer installs one reporting blocked
        #: warps per SM).
        self.watchdog_diagnostics: Optional[Callable[[], Dict[str, float]]] = None
        self._queue: List[Tuple[float, int, EventFn]] = []
        self._seq = 0
        self.events_processed = 0
        self._idle_events = 0
        #: Stop-flag protocol (used by :class:`FastEngine`): callers that
        #: would otherwise pass a per-event ``until`` closure may instead
        #: set this mid-event to break the loop at the same point the
        #: closure would have.  The base engine ignores it.
        self._stop = False

    def schedule(self, time: float, fn: EventFn) -> None:
        """Run *fn(now)* at simulated time *time* (clamped to now)."""
        if time < self.now:
            time = self.now
        self._seq += 1
        heapq.heappush(self._queue, (time, self._seq, fn))

    def schedule_in(self, delay: float, fn: EventFn) -> None:
        self.schedule(self.now + delay, fn)

    def note_progress(self) -> None:
        """Reset the watchdog: the system did something irreversible
        (flushed a persist, retired a warp)."""
        self._idle_events = 0

    def _livelock(self) -> LivelockError:
        depths: Dict[str, float] = {"engine.pending": float(len(self._queue))}
        if self.watchdog_diagnostics is not None:
            depths.update(self.watchdog_diagnostics())
        return LivelockError(self.now, self._idle_events, depths)

    def run(self, until: Callable[[], bool] | None = None) -> float:
        """Process events until the queue drains or *until()* is true.

        Returns the final simulated time.  Raises
        :class:`SimulationError` when the cycle budget is exhausted and
        :class:`LivelockError` when the watchdog sees no forward
        progress, both of which almost always indicate a livelocked spin
        loop in a kernel (or an injected fault that wedged the machine).
        """
        metrics = self.metrics
        metered = metrics.enabled
        while self._queue:
            if until is not None and until():
                break
            time, _seq, fn = heapq.heappop(self._queue)
            if time > self.max_cycles:
                raise SimulationError(
                    f"cycle budget exceeded at t={time:.0f} "
                    f"(budget {self.max_cycles:.0f}); likely a livelock "
                    f"({len(self._queue)} events still queued)"
                )
            self.now = max(self.now, time)
            self.events_processed += 1
            if self.watchdog_events:
                self._idle_events += 1
                if self._idle_events > self.watchdog_events:
                    raise self._livelock()
            if metered and not self.events_processed & _QUEUE_SAMPLE_MASK:
                metrics.observe("engine.queue_depth", float(len(self._queue)))
            fn(self.now)
        if self.stats is not None:
            self.stats.set("engine.events_processed", float(self.events_processed))
            self.stats.set("engine.now", self.now)
        if metered:
            metrics.gauge("engine.events_processed", float(self.events_processed))
            metrics.gauge("engine.now", self.now)
        return self.now

    def pending(self) -> int:
        return len(self._queue)

    def reset(self) -> None:
        self.now = 0.0
        self._queue.clear()
        self._seq = 0
        self.events_processed = 0
        self._idle_events = 0


class FastEngine(Engine):
    """Flattened event queue for the dominant drain/ack pattern.

    The hot schedule shape is "run this at the current cycle": ack
    chains, pump kicks and warp wakeups overwhelmingly land at ``now``.
    Those bypass the heap entirely and go to a FIFO deque; only genuine
    future events pay the ``heappush``/``heappop`` log cost.

    Pop order stays *exactly* the reference ``(time, seq)`` order:

    - ``_seq`` is globally monotone, so the FIFO — appended in schedule
      order with times clamped to the non-decreasing ``now`` — is always
      sorted by ``(time, seq)``.
    - The global minimum is therefore ``min(heap[0], fifo[0])`` compared
      lexicographically, the same tuple comparison ``heapq`` uses.

    ``tests/perfcore/test_queue_property.py`` drives both queues with
    arbitrary (time, tie) insert/pop interleavings (Hypothesis) and
    asserts identical pop sequences, including same-cycle ties.
    """

    def __init__(
        self,
        max_cycles: float = 2e9,
        stats: Optional[StatsRegistry] = None,
        watchdog_events: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(max_cycles, stats, watchdog_events, metrics)
        self._fifo: Deque[Tuple[float, int, EventFn]] = deque()

    def schedule(self, time: float, fn: EventFn) -> None:
        """Run *fn(now)* at simulated time *time* (clamped to now)."""
        self._seq += 1
        if time <= self.now:
            self._fifo.append((self.now, self._seq, fn))
        else:
            heapq.heappush(self._queue, (time, self._seq, fn))

    def run(self, until: Callable[[], bool] | None = None) -> float:
        metrics = self.metrics
        metered = metrics.enabled
        watchdog = self.watchdog_events
        queue = self._queue
        fifo = self._fifo
        events_processed = self.events_processed
        idle_events = self._idle_events
        self._stop = False
        try:
            while queue or fifo:
                # The stop flag breaks at the exact point an ``until``
                # closure returning True would: before the next pop.
                if self._stop or (until is not None and until()):
                    break
                # Lexicographic min of the two sorted fronts == heap order.
                if not queue or (fifo and fifo[0] < queue[0]):
                    time, _seq, fn = fifo.popleft()
                else:
                    time, _seq, fn = heapq.heappop(queue)
                if time > self.max_cycles:
                    raise SimulationError(
                        f"cycle budget exceeded at t={time:.0f} "
                        f"(budget {self.max_cycles:.0f}); likely a livelock "
                        f"({len(queue) + len(fifo)} events still queued)"
                    )
                if time > self.now:
                    self.now = time
                events_processed += 1
                if watchdog:
                    idle_events = self._idle_events + 1
                    self._idle_events = idle_events
                    if idle_events > watchdog:
                        self.events_processed = events_processed
                        raise self._livelock()
                if metered and not events_processed & _QUEUE_SAMPLE_MASK:
                    metrics.observe(
                        "engine.queue_depth", float(len(queue) + len(fifo))
                    )
                fn(self.now)
        finally:
            self.events_processed = events_processed
        if self.stats is not None:
            self.stats.set("engine.events_processed", float(events_processed))
            self.stats.set("engine.now", self.now)
        if metered:
            metrics.gauge("engine.events_processed", float(events_processed))
            metrics.gauge("engine.now", self.now)
        return self.now

    def _livelock(self) -> LivelockError:
        depths: Dict[str, float] = {"engine.pending": float(self.pending())}
        if self.watchdog_diagnostics is not None:
            depths.update(self.watchdog_diagnostics())
        return LivelockError(self.now, self._idle_events, depths)

    def pending(self) -> int:
        return len(self._queue) + len(self._fifo)

    def reset(self) -> None:
        super().reset()
        self._fifo.clear()
