"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload figures|serve|verify \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The program under test is imported from
``src/`` beside this directory.  A run sets up (timed), then runs whole
passes of the workload back to back until *S* seconds have gone, at
least two of them; every pass checks every op, and every pass must
reproduce the first pass's simulated results exactly.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` runs one untraced pass, then traced passes through the
layer wrappers of ``perfbench/layers.py``, checks that both give the
same simulated results, and reports the per-layer metrics.

The last line of stdout is the result JSON; the line before it is the
provenance record.  The full record (and, traced, the span trace) is
written under ``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Untraced passes per ``--trace 0`` run, at least.
MIN_PASSES = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_kref": "kref",
    "ops_per_kref": "op/kref",
    "kinstr_per_kref": "kinstr/kref",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "sim_kcycles": "kcycles",
}

#: Outcome metrics the workloads compute; 0 where a workload has none.
OUTCOMES = {
    "paper_err": "ratio",
    "serve.p99_kcycles": "kcycles",
    "serve.recovery_kcycles": "kcycles",
    "coverage": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    from layers import LAYERS

    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.steps" if layer == "apps" else f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(
        {
            "gpu.events": "count",
            "gpu.ns_per_event": "ns",
            "gpu.spin_share": "ratio",
            "memory.l1.hit_ratio": "ratio",
            "memory.l2.hit_ratio": "ratio",
            "memory.nvm.bytes_written": "bytes",
            "memory.pcie.busy_kcycles": "kcycles",
            "persistency.persist_lines": "count",
            "persistency.sbrp.stalls": "count",
            "persistency.sbrp.ofence_coalesce_ratio": "ratio",
            "formal.crash_images": "count",
            "serve.direct_share": "ratio",
            "unattributed_s": "s",
            "trace_overhead": "ratio",
        }
    )
    units.update(OUTCOMES)
    return units


class DeterminismError(RuntimeError):
    """Two passes of one run disagreed on a simulated result."""


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def _git(*args: str) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=20,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args: argparse.Namespace) -> Dict[str, Any]:
    import networkx
    import numpy

    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if rev else None
    return {
        "git_rev": rev or "unknown (not a git checkout)",
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def timed_setup(workload: str, seed: int) -> tuple:
    start = perf_counter()
    from workloads import WORKLOADS  # repro is imported by setup itself

    inputs = WORKLOADS[workload].setup(seed)
    return perf_counter() - start, inputs


def setup_sample(args: argparse.Namespace) -> float:
    """One set-up timed in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def setup_seconds(samples: List[float], probe_s: List[float]) -> float:
    """Median set-up time, rescaled from the host's speed during the run
    (the median reference-loop time of its pass probes) to the nominal
    host of :data:`speed.NOMINAL_REF_S`.  Raw samples spread 20-30% from
    one set of runs to the next as a shared host drifts between speeds;
    rescaled, under 7%."""
    from speed import NOMINAL_REF_S

    return statistics.median(samples) * NOMINAL_REF_S / statistics.median(probe_s)


def _fingerprint(outcome: Any, census: Dict[str, float]) -> Dict[str, Any]:
    return {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "sim": outcome.sim,
        "census": census,
    }


def _check_same(reference: Dict[str, Any], other: Dict[str, Any], what: str):
    if reference != other:
        diffs = sorted(
            f"{part}.{key}: {reference[part].get(key)!r} != {other[part].get(key)!r}"
            for part in ("sim", "census", "failures")
            for key in set(reference[part]) | set(other[part])
            if reference[part].get(key) != other[part].get(key)
        )
        for part in ("attempted", "failed"):
            if reference[part] != other[part]:
                diffs.append(f"{part}: {reference[part]} != {other[part]}")
        raise DeterminismError(
            f"{what} changed a simulated result:\n  " + "\n  ".join(diffs)
        )


def run_pass(workload: Any, inputs: Any, census: Any, tracer: Any) -> tuple:
    """One checked pass under the speed probe: (host s, probe, outcome,
    census totals, check error or None).  Probe time is left out of the
    host seconds and of the probe's cost in refs."""
    from speed import SpeedProbe
    from workloads import CheckFailed

    probe = SpeedProbe(on_sample=tracer.exclude if tracer else None)
    start = perf_counter()
    error = outcome = None
    try:
        with probe:
            outcome = workload.run_pass(inputs)
    except CheckFailed as exc:
        error = str(exc)
    elapsed = perf_counter() - start - probe.probe_s
    return elapsed, probe, outcome, census.collect(), error


def work_instructions(census: Dict[str, float]) -> float:
    """Simulated warp instructions less pAcq spin retries: how many spin
    a fuzzed litmus stream makes swings from seed to seed."""
    return census.get("sm.instructions", 0.0) - census.get("sm.pacq_spins", 0.0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Any, passes: int, census: Dict[str, float], sim: Dict[str, float],
    traced_s: float, overhead: float,
) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (averaged over *passes*)."""
    from layers import LAYERS

    c = census.get
    out: Dict[str, float] = {}
    self_s = tracer.self_s
    for i, layer in enumerate(LAYERS):
        count = tracer.steps if layer == "apps" else tracer.calls[i]
        out[f"{layer}.steps" if layer == "apps" else f"{layer}.calls"] = count / passes
        out[f"{layer}.self_s"] = self_s[i] / passes
    events = c("engine.events_processed", 0.0)
    l1_hits = sum(c(f"l1.{k}", 0.0) for k in
                  ("read_hit_pm", "read_hit_vol", "write_hit_pm"))
    l1_all = l1_hits + sum(c(f"l1.{k}", 0.0) for k in
                           ("read_miss_pm", "read_miss_vol", "write_miss_pm"))
    l2_hits = sum(v for k, v in census.items()
                  if k.startswith("l2.") and "_hit_" in k)
    l2_all = sum(v for k, v in census.items() if k.startswith("l2."))
    out.update(
        {
            "gpu.events": events,
            "gpu.ns_per_event": _ratio(out["gpu.self_s"] * 1e9, events),
            "gpu.spin_share": _ratio(c("sm.pacq_spins", 0.0),
                                     c("sm.instructions", 0.0)),
            "memory.l1.hit_ratio": _ratio(l1_hits, l1_all),
            "memory.l2.hit_ratio": _ratio(l2_hits, l2_all),
            "memory.nvm.bytes_written": c("nvm.bytes_written", 0.0),
            "memory.pcie.busy_kcycles": c("pcie.busy_cycles", 0.0) / 1e3,
            "persistency.persist_lines": c("persist.lines", 0.0),
            "persistency.sbrp.stalls": c("sbrp.edm_stalls", 0.0)
            + c("sbrp.evict_stalls", 0.0),
            "persistency.sbrp.ofence_coalesce_ratio": _ratio(
                c("sbrp.ofence_coalesced", 0.0),
                c("sbrp.ofence_coalesced", 0.0) + c("sbrp.ofences", 0.0),
            ),
            "formal.crash_images": sim.get("formal.crash_images", 0.0),
            "serve.direct_share": sim.get("serve.direct_share", 0.0),
            "unattributed_s": max(
                traced_s - (tracer.covered_s - tracer.excluded_s) / passes, 0.0
            ),
            "trace_overhead": overhead,
        }
    )
    for name in OUTCOMES:
        out[name] = sim.get(name, 0.0)
    return out


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    setup_first, inputs = timed_setup(args.workload, args.seed)
    from layers import Census, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    # Set-up is timed here, then in fresh interpreters spread over the
    # run (two before the first pass, one after each untraced pass), so
    # the median sees the host's speed over the whole run.
    setups = [setup_first]
    if not args.trace:
        setups += [setup_sample(args) for _ in range(2)]
    census = Census().install()
    deadline = perf_counter() + args.seconds
    walls: List[float] = []
    refs: List[float] = []
    traced_walls: List[float] = []
    traced_refs: List[float] = []
    probe_s: List[float] = []
    reference: Optional[Dict[str, Any]] = None
    tracer: Optional[Tracer] = None
    error: Optional[str] = None
    try:
        while True:
            elapsed, probe, outcome, totals, error = run_pass(
                workload, inputs, census, tracer
            )
            if error is not None:
                break
            cost = probe.refs
            probe_s.extend(duration for _, duration in probe.samples)
            fingerprint = _fingerprint(outcome, totals)
            if reference is None:
                reference = fingerprint
            else:
                _check_same(
                    reference, fingerprint,
                    "the traced pass" if tracer else f"pass {len(walls) + 1}",
                )
            if tracer is not None:
                traced_walls.append(elapsed)
                traced_refs.append(cost)
            else:
                walls.append(elapsed)
                refs.append(cost)
                if not args.trace:
                    setups.append(setup_sample(args))
            if args.trace and tracer is None:
                tracer = Tracer()
                tracer.calibrate()
                tracer.install()
                trace_t0 = perf_counter()
                continue
            passes = len(traced_walls) if args.trace else len(walls)
            if passes >= (1 if args.trace else MIN_PASSES) and (
                perf_counter() >= deadline
            ):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        census.uninstall()

    record: Dict[str, Any] = {
        "setup_samples_s": setups,
        "probe_median_s": statistics.median(probe_s) if probe_s else None,
        "pass_walls_s": walls,
        "pass_krefs": [r / 1e3 for r in refs],
        "traced_pass_walls_s": traced_walls,
        "traced_pass_krefs": [r / 1e3 for r in traced_refs],
        "errors": [error] if error else [],
    }
    if error is not None or reference is None:
        record.update(correct=False, attempted=1, failed=1, metrics={})
        return record
    attempted = reference["attempted"]
    census_ref = reference["census"]
    record.update(
        correct=True,
        attempted=attempted,
        failed=reference["failed"],
        failures=reference["failures"],
        sim=reference["sim"],
        census=census_ref,
        wall_s=statistics.median(walls),
    )
    if tracer is not None:
        metrics = layer_metrics(
            tracer, len(traced_walls), census_ref, reference["sim"],
            statistics.median(traced_walls),
            statistics.median(traced_refs) / statistics.median(refs) - 1.0,
        )
        units = per_layer_units()
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"{args.workload}-seed{args.seed}.spans.json"
        tracer.write_spans(spans, trace_t0)
        record["spans_file"] = str(spans.relative_to(ROOT))
        record["trace_leak_ns"] = tracer.leak_s * 1e9
    else:
        krefs = statistics.median(refs) / 1e3
        metrics = {
            "setup_s": setup_seconds(setups, probe_s),
            "wall_kref": krefs,
            "ops_per_kref": attempted / krefs,
            "kinstr_per_kref": work_instructions(census_ref) / 1e3 / krefs,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "ok_share": (attempted - reference["failed"]) / attempted,
            "sim_kcycles": reference["sim"]["sim_kcycles"],
        }
        units = END_TO_END_UNITS
    record["metrics"] = {
        name: {"value": metrics[name], "unit": units[name]} for name in units
    }
    return record


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("figures", "serve", "verify")
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(repr(timed_setup(args.workload, args.seed)[0]))
        return 0
    try:
        record = measure(args)
    except DeterminismError as exc:
        print(f"perfbench: DETERMINISM FAILURE: {exc}", file=sys.stderr)
        return 1
    record["provenance"] = provenance(args)
    for name, metric in record["metrics"].items():
        print(f"{name:42s} {metric['value']:>16.6g} {metric['unit']}")
    if "wall_s" in record:
        print(f"{'(raw host time of a pass) wall_s':42s} "
              f"{record['wall_s']:>16.6g} s")
    for name, value in sorted(record.get("sim", {}).items()):
        print(f"{'(simulated) ' + name:42s} {value:>16.6g}")
    for kind, count in sorted(record.get("failures", {}).items()):
        print(f"failed op: {kind} x{count}")
    for error in record["errors"]:
        print(f"CHECK FAILED: {error}")
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True), encoding="utf-8")
    print(json.dumps({"provenance": record["provenance"]}, sort_keys=True))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
