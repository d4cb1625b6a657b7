"""The crash-recovery harness.

Workflow::

    harness = CrashHarness(lambda: build_app("gpkvs"), config)
    report = harness.crash_at_fraction(0.5)   # power fails mid-run
    assert report.consistent

A caller that has already run and synced the workload on a machine of
the harness's config lends it to the harness with
:meth:`CrashHarness.adopt`, so :meth:`~CrashHarness.baseline` does not
simulate it a second time.  Crash images only read the machine's
persist log, so every crash lands exactly where it would on a lazily
run baseline::

    app = build_app("gpkvs")
    system = GPUSystem(config)
    app.setup(system)
    run = app.run(system)
    system.sync()
    harness = CrashHarness(app.fresh, config)
    harness.adopt(system, run)   # the caller still closes `system`

A *crash* is a point-in-time snapshot of the durable PM image (the
persist log records when each persist was accepted by an ADR memory
controller).  Recovery always happens on a **fresh machine**: new GPU,
cold caches, empty persist buffers — only the durable PM image and the
driver's namespace table survive, exactly like a real power cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from typing import Any

from repro.apps.base import App, RunOutcome
from repro.common.config import SystemConfig
from repro.common.errors import RecoveryError
from repro.system import CrashImage, GPUSystem

AppFactory = Callable[[], App]


@dataclass
class CrashReport:
    """Outcome of one injected crash."""

    crash_time: float
    run_cycles: float
    recovery_cycles: float
    consistent: bool
    completed: bool
    error: Optional[str] = None


class CrashHarness:
    """Runs an app once, then injects crashes at chosen instants."""

    def __init__(
        self,
        factory: AppFactory,
        config: SystemConfig,
        faults: Optional[Any] = None,
    ) -> None:
        self.factory = factory
        self.config = config
        #: Optional :class:`repro.faults.FaultInjector` applied to the
        #: *baseline* run (and its crash images); recovery always
        #: happens on a clean machine.
        self.faults = faults
        self._baseline: Optional[GPUSystem] = None
        self._run: Optional[RunOutcome] = None

    # ------------------------------------------------------------------
    # baseline crash-free execution
    # ------------------------------------------------------------------
    def baseline(self) -> GPUSystem:
        """Run the workload once (lazily); crashes replay against it."""
        if self._baseline is None:
            system = GPUSystem(self.config, faults=self.faults)
            app = self.factory()
            app.setup(system)
            run = app.run(system)
            system.sync()
            self.adopt(system, run)
        return self._baseline

    def adopt(self, system: GPUSystem, run: RunOutcome) -> None:
        """Use an already-run machine as the baseline.

        *system* must be built from this harness's config and fault
        injector, with a factory app's ``setup`` and ``run`` (which
        returned *run*) and ``system.sync()`` done on it, as
        :meth:`baseline` does.  Crash images only read its persist log.
        The caller keeps ownership and closes *system* itself (closing
        is idempotent, so a later :meth:`close` here is harmless).
        """
        if self._baseline is not None:
            raise ValueError("CrashHarness already has a baseline")
        if system.config != self.config:
            raise ValueError("adopted machine has a different config")
        self._baseline, self._run = system, run

    def close(self) -> None:
        """Free the baseline machine; a later crash re-runs it."""
        if self._baseline is not None:
            self._baseline.close()
            self._baseline = None

    @property
    def run_cycles(self) -> float:
        self.baseline()
        assert self._run is not None
        return self._run.cycles

    def end_time(self) -> float:
        return self.baseline().now

    # ------------------------------------------------------------------
    # crash injection
    # ------------------------------------------------------------------
    def crash_at(self, time: float, complete: bool = True) -> CrashReport:
        """Power failure at absolute simulated time *time*."""
        baseline = self.baseline()
        image = baseline.crash(at=min(time, baseline.now))
        return self._recover_from(image, complete)

    def crash_at_fraction(self, fraction: float, complete: bool = True) -> CrashReport:
        """Power failure *fraction* of the way through the execution.

        The endpoints are handled explicitly rather than through float
        boundary behavior: ``0.0`` crashes before the first persist is
        durable (the image is exactly the host-initialized state) and
        ``1.0`` crashes after the final sync (everything is durable).
        """
        if not 0 <= fraction <= 1:
            raise ValueError("fraction must be within [0, 1]")
        if fraction == 0:
            return self.crash_at(0.0, complete)
        if fraction == 1:
            return self.crash_at(self.end_time(), complete)
        return self.crash_at(self.end_time() * fraction, complete)

    def sweep(self, points: int = 8, complete: bool = True) -> List[CrashReport]:
        """Inject crashes at evenly spaced instants of the execution."""
        return [
            self.crash_at_fraction(i / (points + 1), complete)
            for i in range(1, points + 1)
        ]

    def persist_boundaries(self, limit: Optional[int] = None) -> List[float]:
        """Every instant at which the durable image changes: ``0.0``
        (pre-first-persist) plus each distinct persist-acceptance time.

        Crashing at each of these covers *every distinct durable image*
        of the execution — the exhaustive version of :meth:`sweep`.
        With *limit*, the list is subsampled deterministically (always
        keeping the first and last boundary).
        """
        baseline = self.baseline()
        times = [0.0] + baseline.gpu.subsystem.persist_log.boundary_times(
            end=baseline.now
        )
        if limit is not None and limit > 0 and len(times) > limit:
            if limit == 1:
                times = [times[-1]]
            else:
                step = (len(times) - 1) / (limit - 1)
                picked = {round(i * step) for i in range(limit)}
                times = [times[i] for i in sorted(picked)]
        return times

    def crash_at_every_persist(
        self, complete: bool = False, limit: Optional[int] = None
    ) -> List[CrashReport]:
        """Inject one crash per persist boundary (see
        :meth:`persist_boundaries`); the fault campaign reuses this as
        its clean power-cut sweep."""
        return [
            self.crash_at(t, complete) for t in self.persist_boundaries(limit)
        ]

    # ------------------------------------------------------------------
    # recovery on a fresh machine
    # ------------------------------------------------------------------
    def _recover_from(self, image: CrashImage, complete: bool) -> CrashReport:
        with GPUSystem(self.config, pm_image=image) as rebooted:
            app = self.factory()
            app.reopen(rebooted)
            recovery = app.recover(rebooted)
            rebooted.sync()
            report = CrashReport(
                crash_time=image.time,
                run_cycles=self.run_cycles,
                recovery_cycles=recovery.cycles,
                consistent=True,
                completed=False,
            )
            try:
                app.check(rebooted, complete=False)
            except RecoveryError as exc:
                report.consistent = False
                report.error = str(exc)
                return report
            if complete:
                # Forward progress: re-running the workload must finish the
                # job from the recovered state.
                app.run(rebooted)
                rebooted.sync()
                try:
                    app.check(rebooted, complete=True)
                    report.completed = True
                except RecoveryError as exc:
                    report.error = str(exc)
            return report

    def recovery_cycles_at_worst_case(self) -> float:
        """Recovery runtime for the paper's Figure 11 scenario: crash at
        the instant that maximizes recovery work (just before the last
        commit becomes durable)."""
        report = self.crash_at_fraction(0.999, complete=False)
        if not report.consistent:
            raise RecoveryError(f"worst-case recovery failed: {report.error}")
        return report.recovery_cycles
