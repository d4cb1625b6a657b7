"""One fault-injected scenario, end to end.

:func:`run_fault_scenario` is what a :class:`~repro.exec.jobs.ScenarioJob`
in ``mode="faults"`` executes inside its (possibly separate) worker
process:

1. run the app under a :class:`~repro.faults.injector.FaultInjector`
   built from the job's plan, classifying any wedge/escalation by type;
2. if the run completed, crash at **every persist boundary** (each
   instant the durable image can change, deterministically subsampled to
   ``max_crash_points``), recover each image on a clean machine, and
   classify it through the application oracle;
3. fold the per-point classifications into a scenario *outcome*, match
   it against the plan's declared expectation, and attach a minimized
   reproducer spec (one crash point, JSON-loadable as a ScenarioJob)
   for the first inconsistent point.

Everything in the returned :class:`~repro.bench.runner.ScenarioResult`
is deterministic — no wall-clock, no unseeded randomness — which is
what lets campaign reports compare byte-identical across worker counts.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.bench.runner import ScenarioResult
from repro.common.config import SystemConfig
from repro.common.errors import ReproError
from repro.faults.injector import FaultInjector
from repro.faults.oracles import (
    CONSISTENT,
    FAULT_RAISED,
    HUNG,
    INCONSISTENT_CLASSES,
    RUN_COMPLETED,
    classify_run_exception,
    describe,
    recover_and_classify,
)
from repro.faults.plans import (
    EXPECT_ANY,
    EXPECT_CONSISTENT,
    EXPECT_FAULT_RAISED,
    EXPECT_HUNG,
    EXPECT_INCONSISTENT,
    FaultPlan,
)
from repro.system import GPUSystem

#: Default cap on sampled crash points per scenario.  Boundaries are
#: subsampled deterministically (first + last always kept), so a sweep
#: stays bounded no matter how many persists the app issues.
DEFAULT_MAX_CRASH_POINTS = 24

#: Scenario outcome when at least one crash point was inconsistent.
OUTCOME_INCONSISTENT = "inconsistent"


def _subsample(times: List[float], limit: Optional[int]) -> List[float]:
    """Deterministic subsample keeping endpoints (mirrors
    :meth:`repro.crash.harness.CrashHarness.persist_boundaries`)."""
    if limit is None or limit <= 0 or len(times) <= limit:
        return times
    if limit == 1:
        return [times[-1]]
    step = (len(times) - 1) / (limit - 1)
    picked = {round(i * step) for i in range(limit)}
    return [times[i] for i in sorted(picked)]


def _matches(expect: str, outcome: str) -> bool:
    """Does the scenario *outcome* satisfy the plan's expectation?"""
    if expect == EXPECT_ANY:
        return True
    return {
        EXPECT_CONSISTENT: CONSISTENT,
        EXPECT_INCONSISTENT: OUTCOME_INCONSISTENT,
        EXPECT_HUNG: HUNG,
        EXPECT_FAULT_RAISED: FAULT_RAISED,
    }[expect] == outcome


def run_fault_scenario(
    app_name: str,
    config: SystemConfig,
    app_params: Dict[str, Any],
    fault: Dict[str, Any],
) -> ScenarioResult:
    """Execute one (app, config, fault plan) scenario; see module doc.

    *fault* is ``FaultPlan.to_json()`` plus optional runner knobs:
    ``max_crash_points`` (int) and ``crash_times`` (explicit list — how
    reproducer specs pin a single crash point).
    """
    from repro.apps import build_app

    payload = dict(fault)
    max_crash_points = payload.pop("max_crash_points", DEFAULT_MAX_CRASH_POINTS)
    crash_times = payload.pop("crash_times", None)
    plan = FaultPlan.from_json(payload)
    injector = FaultInjector(plan)

    # Phase 1: the injected run.
    system = GPUSystem(config, faults=injector)
    app = build_app(app_name, **app_params)
    run_class = RUN_COMPLETED
    run_error: Optional[str] = None
    cycles = 0.0
    try:
        app.setup(system)
        outcome_run = app.run(system)
        system.sync()
        cycles = outcome_run.cycles
    except ReproError as exc:
        run_class = classify_run_exception(exc)
        run_error = describe(exc)

    # Phase 2: crash at every persist boundary, recover, classify.
    points: List[Dict[str, Any]] = []
    if run_class == RUN_COMPLETED:
        if crash_times is not None:
            times = [float(t) for t in crash_times]
        else:
            times = [0.0] + system.gpu.subsystem.persist_log.boundary_times(
                end=system.now
            )
            times = _subsample(times, max_crash_points)
        for t in times:
            image = system.crash(at=min(t, system.now))
            classification, error = recover_and_classify(
                app.fresh, config, image
            )
            points.append(
                {"time": t, "classification": classification, "error": error}
            )
    system.close()

    # Phase 3: fold into outcome + verdict + minimized reproducer.
    point_counts: Dict[str, int] = {}
    for point in points:
        cls = point["classification"]
        point_counts[cls] = point_counts.get(cls, 0) + 1
    if run_class != RUN_COMPLETED:
        outcome = run_class
    elif any(p["classification"] in INCONSISTENT_CLASSES for p in points):
        outcome = OUTCOME_INCONSISTENT
    else:
        outcome = CONSISTENT

    reproducer: Optional[Dict[str, Any]] = None
    for point in points:
        if point["classification"] in INCONSISTENT_CLASSES:
            pinned = dict(plan.to_json())
            pinned["crash_times"] = [point["time"]]
            reproducer = {
                "app": app_name,
                "app_params": dict(app_params),
                "config": config.to_dict(),
                "verify": True,
                "mode": "faults",
                "fault": pinned,
            }
            break

    detail = {
        "plan": plan.to_json(),
        "expect": plan.expect,
        "run": {"classification": run_class, "error": run_error},
        "points": points,
        "point_counts": dict(sorted(point_counts.items())),
        "injected": dict(sorted(injector.counts.items())),
        "outcome": outcome,
        "matched": _matches(plan.expect, outcome),
        "reproducer": reproducer,
    }
    stats = {
        "faults.crash_points": float(len(points)),
        "faults.inconsistent_points": float(
            sum(
                count
                for cls, count in point_counts.items()
                if cls in INCONSISTENT_CLASSES
            )
        ),
    }
    for key, value in injector.counts.items():
        stats[f"faults.{key}"] = float(value)
    return ScenarioResult(
        app=app_name,
        label=f"{config.label}[{plan.label}]",
        cycles=cycles,
        stats=stats,
        detail=detail,
    )
