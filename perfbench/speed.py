"""Host time normalized by the host's momentary speed.

The machines this benchmark runs on are shared: a neighbour on the same
core can make the same Python code run 1.5x slower for seconds at a
time, so raw pass times spread far more than any change worth
measuring.  :class:`SpeedProbe` interrupts a pass every *interval*
seconds (``SIGALRM``) and times a fixed reference loop; each stretch of
the pass between two samples is divided by the reference loop's time
around it.  The result is the pass's host cost in *refs* — runs of the
reference loop at the same momentary speed — which moves with the
simulator's own cost and far less with the neighbours.  Probe time is
excluded from the cost.  The probe does not touch simulator state.
"""

from __future__ import annotations

import signal
from time import perf_counter
from typing import Any, Callable, List, Optional, Tuple

#: Reference loop length (1-1.6 ms on a 2-vCPU Xeon VM).
REFERENCE_ITERATIONS = 10_000
#: Reference-loop time of the nominal host that ``setup_s`` is quoted
#: for (about the Xeon VM's uncontended speed).
NOMINAL_REF_S = 1e-3


def reference_loop() -> int:
    table: dict = {}
    for i in range(REFERENCE_ITERATIONS):
        key = i & 255
        table[key] = table.get(key, 0) + i
    return len(table)


class SpeedProbe:
    """Context manager sampling the reference loop during a pass."""

    def __init__(
        self,
        interval: float = 0.05,
        on_sample: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.interval = interval
        #: Told each sample's duration (the tracer excludes it from the
        #: span it interrupted).
        self.on_sample = on_sample
        #: (start time, duration) of every reference sample.
        self.samples: List[Tuple[float, float]] = []
        self.start = self.end = 0.0
        self._previous: Any = None

    def _sample(self, signum: int, frame: Any) -> None:
        start = perf_counter()
        reference_loop()
        duration = perf_counter() - start
        self.samples.append((start, duration))
        if self.on_sample is not None:
            self.on_sample(duration)

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.end = perf_counter()
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def probe_s(self) -> float:
        return sum(duration for _, duration in self.samples)

    @property
    def refs(self) -> float:
        """Host cost of the probed region, probe time excluded, in refs."""
        if not self.samples:
            raise RuntimeError("the pass ended before the first speed sample")
        cost, cursor = 0.0, self.start
        durations = [d for _, d in self.samples]
        for i, (start, duration) in enumerate(self.samples):
            before = durations[i - 1] if i else duration
            cost += (start - cursor) / ((before + duration) / 2)
            cursor = start + duration
        return cost + (self.end - cursor) / durations[-1]
