"""Chaos soak driver: availability SLOs under sustained faults.

``python -m repro.chaos.soak`` runs serving streams through pinned
chronic-fault schedules (:class:`~repro.chaos.timeline.TimelinePlan`)
with crash→recover→crash chains, as ``mode="soak"``
:class:`~repro.exec.ScenarioJob` cells through the shared crash-isolated
:class:`~repro.exec.Executor`.  Each cell's expectations are declared up
front and checked against the soak report:

* **resilient** cells (``config.resilience.enabled``) must survive the
  whole chain: no failure, the recovery oracle ``consistent`` at every
  reboot, zero committed transactions lost, and — where the schedule is
  hot enough — degraded mode both *entered and exited* (graceful
  degradation, not a one-way door);
* the **unprotected** cell runs the *same* schedule without the
  resilience layer and must fail in the documented way
  (``fault_raised``: the burst exhausts the device retry budget).
  That is the suite's mutation teeth — if removing resilience doesn't
  break the soak, the soak proves nothing.

Reports are sorted-key JSON, byte-identical across ``--workers`` counts
(CI pins that with a two-run ``cmp``).

Quick start::

    python -m repro.chaos.soak --smoke           # bounded CI preset
    python -m repro.chaos.soak --workers 4       # full grid
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.chaos.timeline import FaultWindow, TimelinePlan
from repro.common.config import ModelName, ResilienceConfig, small_system
from repro.exec import Executor, ScenarioJob
from repro.exec.executor import add_pool_args, pool_kwargs, positive_int
from repro.exec.jobs import MODE_SOAK
from repro.faults.oracles import CONSISTENT

#: Serving-stream sizes of the soak cells (mirrors the serve bench's
#: smoke stream, smaller batches so the chain crosses more group-commit
#: boundaries — every second batch hosts a crash).
SOAK_PARAMS: Dict[str, Any] = dict(
    n_requests=96,
    n_keys=96,
    capacity=256,
    batch_requests=24,
    rate_per_kcycle=40.0,
)

#: The pinned brownout+burst schedule of the CI cells.  The brownout
#: (NVM at 5% write bandwidth for most of the run) drives WPQ occupancy
#: through the watermarks; the burst (every 7th persist fails 7 times
#: while it lasts) exceeds the device retry budget of 5 — survivable
#: only with the resilience layer's deeper exponential-backoff budget.
def brownout_burst() -> TimelinePlan:
    return TimelinePlan(
        windows=(
            FaultWindow("brownout", start=3000.0, end=22000.0, intensity=0.05),
            FaultWindow("burst", start=4000.0, end=9000.0, intensity=7.0, every=7),
        )
    )


#: The full-grid storm schedule: an ack storm (finite acks deferred to
#: the window's end) overlapping a WPQ squeeze (capacity clamped to 4
#: entries) — congestion without any persist ever failing outright.
def storm_squeeze() -> TimelinePlan:
    return TimelinePlan(
        windows=(
            FaultWindow("ack_storm", start=2000.0, end=6000.0, intensity=500.0),
            FaultWindow("wpq_squeeze", start=3000.0, end=16000.0, intensity=4.0),
        )
    )


@dataclass(frozen=True)
class SoakCell:
    """One soak measurement plus its declared expectations."""

    name: str
    model: ModelName
    resilient: bool
    timeline: TimelinePlan
    params: Mapping[str, Any] = field(default_factory=lambda: dict(SOAK_PARAMS))
    crash_every: int = 2
    crash_fraction: float = 0.6
    #: Clean cells must sustain at least this many crash→recover legs.
    min_crashes: int = 1
    #: Expected failure classification; None = the chain must survive.
    expect_failure: Optional[str] = None
    #: Clean cells additionally assert degraded mode was entered AND
    #: exited (the schedule is hot enough to prove graceful degradation).
    expect_degraded: bool = False

    def job(self) -> ScenarioJob:
        config = small_system(self.model)
        if self.resilient:
            config = replace(config, resilience=ResilienceConfig(enabled=True))
        return ScenarioJob(
            app="serve_kvs",
            config=config,
            app_params=dict(self.params),
            mode=MODE_SOAK,
            soak={
                "timeline": self.timeline.to_json(),
                "crash_every_batches": self.crash_every,
                "crash_fraction": self.crash_fraction,
            },
        )


def smoke_cells() -> List[SoakCell]:
    """The CI preset: SBRP resilient vs unprotected, same schedule."""
    return [
        SoakCell(
            name="sbrp.resilient",
            model=ModelName.SBRP,
            resilient=True,
            timeline=brownout_burst(),
            min_crashes=2,
            expect_degraded=True,
        ),
        SoakCell(
            name="sbrp.unprotected",
            model=ModelName.SBRP,
            resilient=False,
            timeline=brownout_burst(),
            expect_failure="fault_raised",
        ),
    ]


def full_cells() -> List[SoakCell]:
    """The full grid: the CI pair, every model under the storm
    schedule, and a longer SBRP chain (crash inside every batch)."""
    cells = smoke_cells()
    for model in (ModelName.SBRP, ModelName.GPM, ModelName.EPOCH):
        cells.append(
            SoakCell(
                name=f"{model.value}.storm",
                model=model,
                resilient=True,
                timeline=storm_squeeze(),
                min_crashes=2,
            )
        )
    cells.append(
        SoakCell(
            name="sbrp.resilient.everybatch",
            model=ModelName.SBRP,
            resilient=True,
            timeline=brownout_burst(),
            crash_every=1,
            min_crashes=3,
            expect_degraded=True,
        )
    )
    return cells


# ----------------------------------------------------------------------
# report assembly
# ----------------------------------------------------------------------
def cell_row(cell: SoakCell, result: Optional[Any]) -> Dict[str, Any]:
    row: Dict[str, Any] = {
        "model": cell.model.value,
        "resilient": cell.resilient,
        "windows": sorted({w.kind for w in cell.timeline.windows}),
        "expect_failure": cell.expect_failure,
    }
    if result is None:
        row.update(matched=False, failure={"stage": "job_failed"})
        return row
    detail = result.detail or {}
    failure = detail.get("failure")
    reboots = detail.get("reboots", [])
    stats = dict(result.stats)
    oracles_ok = all(r["oracle"] == CONSISTENT for r in reboots)
    if cell.expect_failure is None:
        matched = (
            failure is None
            and oracles_ok
            and len(reboots) >= cell.min_crashes
            and stats.get("soak.lost_committed", 1.0) == 0.0
            and (
                not cell.expect_degraded
                or (
                    stats.get("soak.degraded_entries", 0.0) > 0
                    and stats.get("soak.degraded_exits", 0.0) > 0
                )
            )
        )
    else:
        matched = (
            failure is not None
            and failure.get("classification") == cell.expect_failure
        )
    row.update(
        matched=matched,
        failure=failure,
        reboots=reboots,
        stats=stats,
        injected=detail.get("injected", {}),
        lost_committed=detail.get("lost_committed", []),
    )
    return row


def build_report(
    suite: str, cells: List[SoakCell], results: List[Optional[Any]]
) -> Dict[str, Any]:
    rows = {
        cell.name: cell_row(cell, result)
        for cell, result in zip(cells, results)
    }
    unexpected = sorted(
        name for name, row in rows.items() if not row["matched"]
    )
    crashes = sum(
        len(row.get("reboots", [])) for row in rows.values()
    )
    return {
        "schema": 1,
        "suite": suite,
        "cells": rows,
        "summary": {
            "cells": len(cells),
            "matched": sum(row["matched"] for row in rows.values()),
            "crashes_survived": crashes,
            "unexpected": unexpected,
        },
    }


def render_report(doc: Dict[str, Any]) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _progress(event: Any) -> None:
    if event.kind == "done":
        print(
            f"[{event.done}/{event.total}] {event.label}: {event.status}",
            file=sys.stderr,
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos.soak",
        description="Soak serving streams through chronic-fault "
        "schedules with crash-recover-crash chains; assert availability "
        "SLOs, oracle-clean recovery, and zero committed-data loss.",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="bounded CI preset: the SBRP resilient/unprotected pair",
    )
    parser.add_argument("--workers", type=positive_int, default=1)
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed result cache (off by default)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output path (default: soak_<suite>.json in cwd)",
    )
    parser.add_argument("--quiet", action="store_true")
    add_pool_args(parser)
    args = parser.parse_args(argv)

    suite = "smoke" if args.smoke else "full"
    cells = smoke_cells() if args.smoke else full_cells()
    executor = Executor(
        workers=args.workers,
        cache=args.cache_dir,
        progress=None if args.quiet else _progress,
        **pool_kwargs(args),
    )
    results = executor.submit(
        [cell.job() for cell in cells], allow_failures=True
    )
    for failure in executor.failures:
        print(f"--- {failure.job.label} ---\n{failure}", file=sys.stderr)

    report = build_report(suite, cells, results)
    text = render_report(report)
    out = Path(args.out) if args.out else Path(f"soak_{suite}.json")
    out.write_text(text, encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)

    for name in sorted(report["cells"]):
        row = report["cells"][name]
        stats = row.get("stats", {})
        verdict = "ok" if row["matched"] else "UNEXPECTED"
        if row.get("failure") is not None:
            outcome = f"failed[{row['failure'].get('classification')}]"
        else:
            outcome = (
                f"avail {stats.get('soak.availability', 0.0):.3f}  "
                f"p99 {stats.get('soak.latency_p99', 0.0):>8.0f} cy  "
                f"crashes {len(row.get('reboots', []))}"
            )
        print(f"  {name:28s} {outcome}  [{verdict}]", file=sys.stderr)
    print(executor.footer(), file=sys.stderr)

    summary = report["summary"]
    if summary["unexpected"]:
        for name in summary["unexpected"]:
            print(f"UNEXPECTED: {name}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
