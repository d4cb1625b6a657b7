"""The soak runner: crash→recover→crash chains under chronic faults.

``run_soak_scenario`` drives one serving stream (a
:class:`~repro.serve.app.ServeKVS` plan) through a
:class:`~repro.chaos.timeline.TimelinePlan` of chronic faults, crashing
the machine inside every ``crash_every_batches``-th batch and rebooting
onto the surviving image:

* **oracle per reboot** — every crash image first goes through the
  PR-3 application oracle (:func:`repro.faults.oracles
  .recover_and_classify`: clean machine, recovery kernel, invariant
  check) before the chain continues, so a single bad image fails the
  soak even if later batches would have papered over it;
* **zero data loss** — after each reboot's recovery, every key's
  recovered version is audited against the ledger of batches whose
  group commit *durably completed* before the crash instant; a
  committed version regressing is data loss and is reported as such;
* **resilience** — with ``config.resilience.enabled`` the batch
  scheduler runs admission control (watermarks → shed/throttle/reject)
  and transient bursts retry on the exponential-backoff policy; with it
  disabled the same schedule is served naively, which is the mutation
  teeth the soak cells assert (documented failure, not silence);
* **SLOs** — availability (1 − recovery downtime / total machine
  time), goodput (committed requests per second of wall time on the
  open-loop clock), latency percentiles under fault, and the
  recovery-time distribution.

Everything is a pure function of (app params, config, soak payload), so
soak reports are byte-identical across Executor worker counts.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro.apps import build_app
from repro.bench.runner import ScenarioResult
from repro.chaos.injector import ChronicInjector
from repro.chaos.resilience import AdmissionController, ResilienceMonitor
from repro.chaos.timeline import TimelinePlan
from repro.common.config import SystemConfig
from repro.common.errors import DegradedModeError, ReproError
from repro.common.units import CLOCK_MHZ
from repro.faults.oracles import (
    CONSISTENT,
    classify_run_exception,
    describe,
    recover_and_classify,
)
from repro.faults.plans import FaultPlan
from repro.metrics.registry import MetricsRegistry
from repro.serve.app import VALUE_STEP, encode_value
from repro.system import GPUSystem

#: Histogram of request commit latencies under fault, cycles.
LATENCY_METRIC = "soak.latency_cycles"

#: Soak-level failure stages (distinct from oracle classifications).
FAILURE_REJECTED = "degraded_rejected"
FAILURE_FINAL_CHECK = "final_check_failed"


def _batch_commits(plan) -> List[Dict[int, int]]:
    """Per batch: the key→version writes its group commit applies."""
    commits: List[Dict[int, int]] = []
    for batch in plan.batches:
        applied: Dict[int, int] = {}
        for req in batch.requests:
            if req.is_applying_write:
                applied[int(req.key)] = max(
                    applied.get(int(req.key), 0), int(req.version)
                )
        commits.append(applied)
    return commits


def _audit_committed(
    system: GPUSystem, app, committed: Mapping[int, int]
) -> List[Dict[str, int]]:
    """Keys whose recovered version regressed below a committed one."""
    lost: List[Dict[str, int]] = []
    if not committed:
        return lost
    vals = system.read_words(app.tbl_val, app.params.capacity)
    for key in sorted(committed):
        version = committed[key]
        delta = int(vals[key]) - int(encode_value(key, 0))
        if delta >= 0 and delta % VALUE_STEP == 0:
            recovered = delta // VALUE_STEP
        else:
            recovered = -1  # not a valid value for this key at all
        if recovered < version:
            lost.append(
                {"key": int(key), "committed": int(version), "recovered": recovered}
            )
    return lost


def _merge_counts(totals: Dict[str, int], injector: Optional[Any]) -> None:
    if injector is None:
        return
    for key, value in injector.counts.items():
        totals[key] = totals.get(key, 0) + int(value)


def run_soak_scenario(
    app_name: str,
    config: SystemConfig,
    app_params: Optional[dict] = None,
    soak: Optional[Mapping[str, Any]] = None,
) -> ScenarioResult:
    """Soak one serving stream through a chronic fault schedule."""
    payload = dict(soak or {})
    plan_json = payload.pop("timeline", None)
    if plan_json is None:
        raise ValueError("soak payload needs a 'timeline' fault plan")
    timeline = FaultPlan.from_json(plan_json)
    if not isinstance(timeline, TimelinePlan):
        raise ValueError("soak timeline must be a timeline fault plan")
    crash_every = int(payload.pop("crash_every_batches", 0))
    crash_fraction = float(payload.pop("crash_fraction", 0.6))
    if payload:
        raise ValueError(f"unknown soak payload keys {sorted(payload)}")

    params = dict(app_params or {})
    resilience = config.resilience
    metrics = MetricsRegistry()
    monitor = ResilienceMonitor(resilience, metrics)
    admission = AdmissionController(resilience, metrics)

    app = build_app(app_name, **params)
    plan = app.plan
    n_batches = len(plan.batches)
    commits = _batch_commits(plan)

    offset = 0.0  # global soak-chain time of the current machine's boot
    downtime = 0.0
    clock = 0.0  # open-loop pricing clock (global cycles)
    committed: Dict[int, int] = {}  # durable ledger: key -> version
    committed_requests = 0
    recoveries: List[float] = []
    reboots: List[Dict[str, Any]] = []
    lost: List[Dict[str, int]] = []
    injected: Dict[str, int] = {}
    failure: Optional[Dict[str, Any]] = None
    replayed: set = set()

    system = GPUSystem(
        config,
        faults=ChronicInjector(timeline, resilience=resilience, time_offset=offset),
        metrics=metrics,
    )
    app.setup(system)

    index = 0
    while index < n_batches:
        batch = plan.batches[index]
        t0 = system.now
        try:
            advice = admission.admit(system, monitor, now=t0)
        except DegradedModeError as exc:
            failure = {
                "stage": "admission",
                "batch": index,
                "classification": FAILURE_REJECTED,
                "error": describe(exc),
            }
            break
        clock += advice.deferred_cycles
        try:
            results = app.serve_batch(
                system, index, policy=advice.policy, split=advice.split
            )
        except ReproError as exc:
            failure = {
                "stage": "serve",
                "batch": index,
                "classification": classify_run_exception(exc),
                "error": describe(exc),
            }
            break
        kernel_cycles = float(sum(r.cycles for r in results))
        monitor.observe_system(system, system.now)

        crash_here = (
            crash_every > 0
            and (index + 1) % crash_every == 0
            and index not in replayed
        )
        if crash_here:
            # Crash inside this batch's execution window: everything up
            # to batch index-1 is durably committed, batch index is the
            # in-flight casualty the recovery protocol must handle.
            t_crash = t0 + crash_fraction * (system.now - t0)
            image = system.crash(at=t_crash)
            _merge_counts(injected, system.faults)
            classification, error = recover_and_classify(
                app.fresh, config, image
            )
            offset += t_crash
            rebooted = GPUSystem(
                config,
                pm_image=image,
                faults=ChronicInjector(
                    timeline, resilience=resilience, time_offset=offset
                ),
                metrics=metrics,
            )
            app.reopen(rebooted)
            recovery = app.recover(rebooted)
            rebooted.sync()
            recovery_cycles = float(recovery.cycles)
            recoveries.append(recovery_cycles)
            downtime += recovery_cycles
            clock += recovery_cycles  # clients wait out the reboot
            metrics.observe("soak.recovery_cycles", recovery_cycles)
            audit = _audit_committed(rebooted, app, committed)
            lost.extend(audit)
            reboots.append(
                {
                    "batch": index,
                    "crash_time": t_crash,
                    "global_time": offset,
                    "oracle": classification,
                    "error": error,
                    "recovery_cycles": recovery_cycles,
                    "lost_committed": len(audit),
                }
            )
            if classification != CONSISTENT:
                rebooted.close()
                failure = {
                    "stage": "oracle",
                    "batch": index,
                    "classification": classification,
                    "error": error,
                }
                break
            system.close()
            system = rebooted
            replayed.add(index)
            continue  # replay the in-flight batch on the recovered machine

        # The batch's group commit is durable: price it, ledger it.
        start = max(clock, offset + float(batch.ready_time))
        clock = start + kernel_cycles
        for req in batch.requests:
            metrics.observe(LATENCY_METRIC, clock - (offset + float(req.arrival)))
        committed.update(commits[index])
        committed_requests += len(batch.requests)
        index += 1

    _merge_counts(injected, system.faults)
    if failure is None:
        try:
            app.check(system, complete=True)
        except ReproError as exc:
            failure = {
                "stage": "final_check",
                "batch": n_batches - 1,
                "classification": FAILURE_FINAL_CHECK,
                "error": describe(exc),
            }

    total_time = offset + system.now
    availability = 1.0 - downtime / total_time if total_time > 0 else 1.0
    span_s = clock / (CLOCK_MHZ * 1e6)
    goodput = committed_requests / span_s if span_s > 0 else 0.0
    latency = metrics.histogram(LATENCY_METRIC).summary()
    recovery_summary = metrics.histogram("soak.recovery_cycles").summary()

    stats: Dict[str, float] = {
        "soak.availability": availability,
        "soak.goodput_rps": goodput,
        "soak.committed_requests": float(committed_requests),
        "soak.crashes": float(len(reboots)),
        "soak.machine_cycles": total_time,
        "soak.downtime_cycles": downtime,
        "soak.span_cycles": clock,
        "soak.latency_p50": latency.get("p50", 0.0),
        "soak.latency_p99": latency.get("p99", 0.0),
        "soak.recovery_p50": recovery_summary.get("p50", 0.0),
        "soak.recovery_max": max(recoveries, default=0.0),
        "soak.lost_committed": float(len(lost)),
        "soak.degraded_entries": float(monitor.entries),
        "soak.degraded_exits": float(monitor.exits),
        "soak.shed_batches": float(admission.sheds),
        "soak.rejects": float(admission.rejects),
        "soak.retries_absorbed": float(injected.get("nvm_retries_absorbed", 0)),
    }
    detail: Dict[str, Any] = {
        "resilience": bool(resilience.enabled),
        "timeline": timeline.to_json(),
        "crash_every_batches": crash_every,
        "crash_fraction": crash_fraction,
        "batches": n_batches,
        "reboots": reboots,
        "recovery_cycles": recoveries,
        "lost_committed": lost,
        "injected": dict(sorted(injected.items())),
        "failure": failure,
    }
    result = ScenarioResult(
        app=app_name,
        label=config.label,
        cycles=total_time,
        stats=stats,
        detail=detail,
        metrics=system.metrics_snapshot(),
    )
    system.close()
    return result
