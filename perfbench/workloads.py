"""The benchmark's three workloads, each a closed loop with one client.

Every pass runs the workload's public entry point once, serially, on a
fresh ``Executor(workers=1, cache=None)``: no worker pool and no result
cache, so every op is simulated.  ``setup`` is what a user pays before
the first op (imports plus input generation); ``run_pass`` runs and
checks every op and returns the pass's deterministic simulated results.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Tuple

#: Figure 6 gmean ratios held in EXPERIMENTS.md (the paper's numbers):
#: name -> (reference, function of the gmean row).
PAPER_RATIOS: Dict[str, Tuple[float, Callable[[Dict[str, float]], float]]] = {
    "epoch_far_over_gpm": (1.06, lambda g: g["Epoch-far"] / g["GPM"]),
    "sbrp_far_over_epoch_far": (1.14, lambda g: g["SBRP-far"] / g["Epoch-far"]),
    "sbrp_near_over_epoch_near": (
        1.15, lambda g: g["SBRP-near"] / g["Epoch-near"]
    ),
    "near_over_far": (2.16, lambda g: g["Epoch-near"] / g["Epoch-far"]),
}

#: Serve stream: the ``repro.serve.bench`` grid's saturating stream,
#: lengthened 16x so one grid pass is seconds, not a fraction of one.
SERVE_REQUESTS = 4096
#: Verify campaign size: fuzzed programs per stock model, and fuzzed
#: programs (beyond the corpus) per mutant target.  Mutants run on the
#: fixed corpus alone: fuzzed programs there made shrinking time, and so
#: a pass's cost, swing with the seed.
VERIFY_PROGRAMS = 200
VERIFY_MUTANT_PROGRAMS = 0


class CheckFailed(AssertionError):
    """An output check of the benchmark itself failed."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _digest(data: Any) -> str:
    text = json.dumps(data, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class PassOutcome:
    attempted: int
    failed: int
    #: Deterministic simulated results (``sim_kcycles``, the workload's
    #: outcome metrics); the determinism guard compares them exactly.
    sim: Dict[str, float]
    #: Human-readable failure breakdown (kind -> count).
    failures: Dict[str, int] = field(default_factory=dict)


def recording_executor() -> Any:
    """A serial, uncached Executor that keeps every (job, result).

    A failed job is recorded and the first failure re-raised after the
    whole batch ran, so the caller sees the stock behaviour while the
    benchmark counts every failure.
    """
    from repro.exec.executor import Executor

    class RecordingExecutor(Executor):
        def __init__(self) -> None:
            super().__init__(workers=1, cache=None)
            self.log: List[Tuple[Any, Any]] = []

        def submit(self, jobs, allow_failures=False):  # type: ignore[override]
            jobs = list(jobs)
            results = super().submit(jobs, allow_failures=True)
            self.log.extend(zip(jobs, results))
            if self.failures and not allow_failures:
                raise self.failures[0]
            return results

    return RecordingExecutor()


def _failure_kind(error: Any) -> str:
    from repro.exec.executor import error_class

    return error_class(error.outcome) or error.outcome.status


# ----------------------------------------------------------------------
# figures: the Figure 6 grid
# ----------------------------------------------------------------------
def setup_figures(seed: int) -> Dict[str, Any]:
    """Figure 6 inputs are fixed by the ``quick`` preset; *seed* is
    unused."""
    from repro.bench import figures  # noqa: F401  (entry point import cost)
    from repro.bench.runner import scenario_config
    from repro.bench.workloads import APP_ORDER, workload
    from repro.common.config import ModelName, PMPlacement

    far, near = PMPlacement.FAR, PMPlacement.NEAR
    configs = [
        scenario_config(ModelName.GPM, far),
        scenario_config(ModelName.EPOCH, far),
        scenario_config(ModelName.SBRP, far),
        scenario_config(ModelName.EPOCH, near),
        scenario_config(ModelName.SBRP, near),
    ]
    jobs = [
        (app, workload(app, "quick"), config.to_dict())
        for app in APP_ORDER
        for config in configs
    ]
    return {"preset": "quick", "jobs": jobs, "digest": _digest(jobs)}


def run_figures(inputs: Dict[str, Any]) -> PassOutcome:
    from repro.bench.figures import figure6
    from repro.exec.executor import JobFailedError

    executor = recording_executor()
    attempted = len(inputs["jobs"])
    try:
        table = figure6(inputs["preset"], executor=executor)
    except JobFailedError:
        table = None
    # Every scenario ran app.check(complete=True) inside its job; a job
    # that raised is a failed op.  Here the grid itself is checked.
    cycles = [r.cycles for _, r in executor.log if r is not None]
    _require(len(executor.log) == attempted, "figures: scenario count")
    _require(all(c > 0 for c in cycles), "figures: non-positive cycles")
    sim = {"sim_kcycles": sum(cycles) / 1e3}
    failures = Counter(_failure_kind(e) for e in executor.failures)
    if table is None:
        return PassOutcome(attempted, len(executor.failures), sim, dict(failures))
    rows = {row[table.row_key]: row for row in table.rows}
    _require(len(rows) == attempted // len(table.series) + 1, "figures: rows")
    _require(
        all(row[s] > 0 for row in rows.values() for s in table.series),
        "figures: non-positive speedup",
    )
    gmean = rows["gmean"]
    errors = [
        abs(ratio(gmean) - ref) / ref for ref, ratio in PAPER_RATIOS.values()
    ]
    sim["paper_err"] = sum(errors) / len(errors)
    return PassOutcome(attempted, 0, sim)


# ----------------------------------------------------------------------
# serve: the repro.serve.bench grid over a lengthened seeded stream
# ----------------------------------------------------------------------
def setup_serve(seed: int) -> Dict[str, Any]:
    from repro.serve.app import ServeKVSParams
    from repro.serve.bench import suite_jobs
    from repro.serve.workload import plan_workload

    params = {"n_requests": SERVE_REQUESTS, "seed": seed}
    jobs = [
        replace(job, app_params={**job.app_params, **params})
        for job in suite_jobs()
    ]
    plan = plan_workload(ServeKVSParams(**jobs[0].app_params).workload())
    return {"jobs": jobs, "plan": plan, "digest": plan.digest()}


def run_serve(inputs: Dict[str, Any]) -> PassOutcome:
    from repro.serve.bench import build_report, cell_name

    jobs, plan = inputs["jobs"], inputs["plan"]
    n_requests = len(plan.requests)
    executor = recording_executor()
    results = executor.submit(jobs, allow_failures=True)
    failures = Counter(_failure_kind(e) for e in executor.failures)

    # Each cell ran app.check(complete=True) (final store == plan); a
    # cell that raised fails all its requests.  Here the request ledger
    # and the SLO numbers of every served cell are checked.
    writes = sum(req.is_applying_write for req in plan.requests)
    served = [(job, r) for job, r in zip(jobs, results) if r is not None]
    for job, result in served:
        stats, name = result.stats, cell_name(job)
        rows = result.detail["batches"]
        _require(stats["serve.requests"] == n_requests, f"{name}: requests")
        _require(
            sum(row["requests"] for row in rows) == n_requests,
            f"{name}: batch ledger",
        )
        _require(
            stats["serve.path_pb"] + stats["serve.path_direct"] == writes,
            f"{name}: write-path ledger",
        )
        _require(
            all(row["start"] >= row["ready"] for row in rows)
            and all(a["finish"] <= b["start"] for a, b in zip(rows, rows[1:])),
            f"{name}: open-loop clock",
        )
        _require(
            0 < stats["serve.latency_p50"] <= stats["serve.latency_p99"],
            f"{name}: latency percentiles",
        )
        _require(stats["serve.recovery_cycles"] > 0, f"{name}: recovery")
    attempted = n_requests * len(jobs)
    sim = {"sim_kcycles": sum(r.cycles for _, r in served) / 1e3}
    if executor.failures:
        failed = n_requests * len(executor.failures)
        return PassOutcome(attempted, failed, sim, dict(failures))
    doc = build_report(jobs, results, smoke=False)
    sbrp = doc["cells"]["SBRP-far/adaptive"]
    directs = sum(cell["serve.path_direct"] for cell in doc["cells"].values())
    sim.update(
        {
            "serve.p99_kcycles": sbrp["serve.latency_p99"] / 1e3,
            "serve.recovery_kcycles": sbrp["serve.recovery_cycles"] / 1e3,
            "serve.direct_share": directs / (writes * len(jobs)),
        }
    )
    return PassOutcome(attempted, 0, sim)


# ----------------------------------------------------------------------
# verify: the conformance campaign
# ----------------------------------------------------------------------
def setup_verify(seed: int) -> Dict[str, Any]:
    from repro.check import conformance  # noqa: F401  (entry point import cost)
    from repro.check.corpus import corpus_programs
    from repro.check.fuzzer import generate_stream

    programs = corpus_programs() + generate_stream(seed, VERIFY_PROGRAMS)
    return {
        "seed": seed,
        "programs": programs,
        "digest": _digest([p.to_json() for p in programs]),
    }


def run_verify(inputs: Dict[str, Any]) -> PassOutcome:
    from repro.check.conformance import DEFAULT_BATCH, STOCK_MODELS, build_report
    from repro.check.enumerator import VARIANTS
    from repro.check.mutants import mutant_names

    executor = recording_executor()
    mutants = mutant_names()
    report = build_report(
        programs=VERIFY_PROGRAMS,
        seed=inputs["seed"],
        mutant_programs=VERIFY_MUTANT_PROGRAMS,
        batch_size=DEFAULT_BATCH,
        crash_points=48,
        variants=list(VARIANTS),
        models=list(STOCK_MODELS),
        mutants=mutants,
        executor=executor,
        shrink=True,
    )

    # One op per (program, stock model, variant) observation; it fails
    # on any oracle violation, a simulation error included.  Each mutant
    # target is one more op, failed when the mutant goes uncaught.
    attempted = failed = 0
    allowed = observed = crash_images = 0
    failures: Counter = Counter()
    per_model: Counter = Counter()
    for _, result in executor.log:
        detail = result.detail
        for program in detail["programs"]:
            crash_images += program["coverage"]["allowed"]
            if detail["mutant"] is not None:
                continue
            per_model[detail["model"]] += 1
            allowed += program["coverage"]["allowed"]
            observed += program["coverage"]["observed_allowed"]
            for variant in program["variants"]:
                attempted += 1
                if not variant["violations"]:
                    continue
                failed += 1
                first = variant["violations"][0]
                kind = first["type"]
                if "error" in first:
                    kind += ":" + first["error"].split(":")[0]
                failures[f"{detail['model']}:{kind}"] += 1
    uncaught = [m for m in mutants if not report["mutants"][m]["caught"]]
    for name in uncaught:
        failures[f"uncaught_mutant:{name}"] += 1

    n_programs = len(inputs["programs"])
    _require(
        all(per_model[m.value] == n_programs for m in STOCK_MODELS),
        "verify: every stock model saw every program",
    )
    _require(
        attempted == n_programs * len(STOCK_MODELS) * len(VARIANTS),
        "verify: observation count",
    )
    violations = report["summary"]["stock_violations"]
    _require(
        failed <= violations and (failed == 0) == (violations == 0),
        "verify: failed observations agree with the campaign's "
        "stock-violation count",
    )
    return PassOutcome(
        attempted + len(mutants),
        failed + len(uncaught),
        {
            "sim_kcycles": sum(r.cycles for _, r in executor.log) / 1e3,
            "coverage": observed / allowed,
            "formal.crash_images": float(crash_images),
            "stock_violations": float(violations),
        },
        dict(failures),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], Dict[str, Any]]
    run_pass: Callable[[Dict[str, Any]], PassOutcome]


WORKLOADS: Dict[str, Workload] = {
    "figures": Workload("figures", setup_figures, run_figures),
    "serve": Workload("serve", setup_serve, run_serve),
    "verify": Workload("verify", setup_verify, run_verify),
}
