"""Pinned microbenchmark suite: simulator throughput over time.

The suite measures *host* performance of the simulator itself — how many
simulated cycles and engine events per wall-clock second each pinned
case sustains — so that optimisation work (and regressions) show up as a
number, not a feeling.  Results land in ``BENCH_<n>.json`` (auto-
incremented, sorted keys) and are diffed with
:mod:`repro.bench.compare`.

Cases are pinned: a fixed set of cold single-scenario simulations (one
per persistency model x app on the ``small_system`` machine), one
serving-subsystem measurement (stream planning + durable transactions +
recovery-under-load; events/sec = requests served per second), one
litmus-enumeration batch, and one cache-warm case that measures how fast
the content-addressed result cache serves hits.

Command line::

    python -m repro.bench.perf                 # full suite -> BENCH_<n>.json
    python -m repro.bench.perf --smoke         # CI subset, 1 repeat, no warmup
    python -m repro.bench.perf --profile       # cProfile hotspots (one case)
    python -m repro.bench.compare OLD NEW      # regression diff
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.apps import build_app
from repro.common.config import ModelName, PMPlacement, small_system
from repro.system import GPUSystem

#: App constructor kwargs per perf case.  Module-level so tests can
#: shrink them; sized so each case runs in roughly a second.
PERF_PARAMS: Dict[str, dict] = {
    "gpkvs": dict(n_pairs=2048, capacity=4096, rounds=2),
    "reduction": dict(blocks=24, per_thread=8),
    "scan": dict(blocks=32),
}

#: Apps of the sim cases, in suite order.
PERF_APPS = ("gpkvs", "reduction", "scan")

#: Models of the sim cases, in suite order.
PERF_MODELS = (ModelName.GPM, ModelName.EPOCH, ModelName.SBRP)

#: Serve case: one SLO measurement of the serving subsystem (stream
#: planning + durable transactions + recovery-under-load).  Sized like
#: the serve smoke suite; events = requests served.
SERVE_PARAMS: Dict[str, Any] = dict(
    n_requests=96, n_keys=96, capacity=256, batch_requests=48
)

#: Litmus-enumeration case: how many corpus programs and crash points.
LITMUS_PROGRAMS = 4
LITMUS_CRASH_POINTS = 12

#: Cache-warm case: how many hits one measurement serves.
WARM_HITS = 20


@dataclass(frozen=True)
class PerfCase:
    """One pinned measurement of the suite."""

    name: str
    kind: str  # "sim" | "serve" | "soak" | "litmus" | "cache"
    model: Optional[ModelName] = None
    app: Optional[str] = None


def suite_cases(smoke: bool = False) -> List[PerfCase]:
    """The pinned case list.  ``--smoke`` keeps a representative subset
    with identical case specs, so smoke rates compare against full-suite
    baselines case-by-case."""
    cases: List[PerfCase] = []
    for model in PERF_MODELS:
        for app in PERF_APPS:
            if smoke and app != "gpkvs" and model is not ModelName.SBRP:
                continue
            cases.append(
                PerfCase(
                    name=f"sim.{model.value}.{app}",
                    kind="sim",
                    model=model,
                    app=app,
                )
            )
    cases.append(
        PerfCase(name="serve.sbrp.kvs", kind="serve", model=ModelName.SBRP)
    )
    cases.append(
        PerfCase(name="soak.sbrp.kvs", kind="soak", model=ModelName.SBRP)
    )
    cases.append(PerfCase(name="litmus.enum", kind="litmus"))
    cases.append(PerfCase(name="cache.warm", kind="cache"))
    return cases


# ----------------------------------------------------------------------
# case runners: each returns (simulated cycles, engine events)
# ----------------------------------------------------------------------
def _run_sim(case: PerfCase) -> Tuple[float, float]:
    assert case.model is not None and case.app is not None
    config = small_system(case.model, PMPlacement.FAR)
    app = build_app(case.app, **PERF_PARAMS[case.app])
    with GPUSystem(config) as system:
        app.setup(system)
        app.run(system)
        return system.now, float(system.gpu.engine.events_processed)


def _run_serve(case: PerfCase) -> Tuple[float, float]:
    from repro.serve.runner import run_serve_scenario

    assert case.model is not None
    result = run_serve_scenario(
        "serve_kvs", small_system(case.model), SERVE_PARAMS
    )
    return result.cycles, result.stats["serve.requests"]


def _run_soak(case: PerfCase) -> Tuple[float, float]:
    """The chaos chain as a perf case: a resilient SBRP serve stream
    through the pinned brownout+burst schedule with crash→recover→crash
    legs and the recovery oracle at every reboot — the heaviest
    composite path the simulator has (serve kernels + chronic injector
    + crash imaging + oracle recovery).  events = committed requests."""
    from dataclasses import replace

    from repro.chaos.runner import run_soak_scenario
    from repro.chaos.soak import SOAK_PARAMS, brownout_burst
    from repro.common.config import ResilienceConfig

    assert case.model is not None
    config = replace(
        small_system(case.model), resilience=ResilienceConfig(enabled=True)
    )
    result = run_soak_scenario(
        "serve_kvs",
        config,
        dict(SOAK_PARAMS),
        {
            "timeline": brownout_burst().to_json(),
            "crash_every_batches": 2,
            "crash_fraction": 0.6,
        },
    )
    return result.cycles, result.stats["soak.committed_requests"]


def _litmus_spec() -> Dict[str, Any]:
    from repro.check.corpus import corpus_programs
    from repro.check.enumerator import SMOKE_VARIANTS

    programs = corpus_programs()[:LITMUS_PROGRAMS]
    return {
        "programs": [p.to_json() for p in programs],
        "model": ModelName.SBRP.value,
        "variants": [v.to_json() for v in SMOKE_VARIANTS],
        "crash_points": LITMUS_CRASH_POINTS,
    }


def _run_litmus(case: PerfCase) -> Tuple[float, float]:
    from repro.check.runner import run_check_batch

    result = run_check_batch(_litmus_spec())
    # Engine event counts never leave check_program; the rate that
    # matters here is enumerated-simulation cycles per second.
    return result.cycles, 0.0


def _warm_job():
    from repro.exec.jobs import ScenarioJob

    return ScenarioJob(
        app="gpkvs",
        config=small_system(ModelName.SBRP, PMPlacement.FAR),
        app_params=PERF_PARAMS["gpkvs"],
        verify=False,
    )


def _prime_cache(cache_root: str) -> None:
    from repro.exec.executor import Executor

    Executor(workers=1, cache=cache_root).run(_warm_job())


def _run_cache(case: PerfCase, cache_root: str) -> Tuple[float, float]:
    """Serve WARM_HITS cache hits through fresh Executors.

    cycles = simulated cycles delivered from the cache; events = jobs
    served — so cycles/sec is cache-serving bandwidth and events/sec is
    hit throughput.
    """
    from repro.exec.executor import Executor

    job = _warm_job()
    cycles = 0.0
    for _ in range(WARM_HITS):
        result = Executor(workers=1, cache=cache_root).run(job)
        cycles += result.cycles
    return cycles, float(WARM_HITS)


def run_case_once(case: PerfCase, cache_root: Optional[str] = None) -> Dict[str, float]:
    """One timed measurement of *case*."""
    start = time.perf_counter()
    if case.kind == "sim":
        cycles, events = _run_sim(case)
    elif case.kind == "serve":
        cycles, events = _run_serve(case)
    elif case.kind == "soak":
        cycles, events = _run_soak(case)
    elif case.kind == "litmus":
        cycles, events = _run_litmus(case)
    elif case.kind == "cache":
        assert cache_root is not None
        cycles, events = _run_cache(case, cache_root)
    else:  # pragma: no cover - suite_cases only emits the above
        raise ValueError(f"unknown case kind {case.kind!r}")
    wall = time.perf_counter() - start
    return {"cycles": cycles, "events": events, "wall_s": wall}


def measure_case(
    case: PerfCase,
    repeats: int = 3,
    warmup: int = 1,
    cache_root: Optional[str] = None,
) -> Dict[str, Any]:
    """warmup + repeats measurements; rates from the median wall time."""
    if case.kind == "cache" and cache_root is not None:
        _prime_cache(cache_root)  # priming is setup, not measurement
    for _ in range(warmup):
        run_case_once(case, cache_root)
    runs = [run_case_once(case, cache_root) for _ in range(max(1, repeats))]
    wall = statistics.median(run["wall_s"] for run in runs)
    cycles = runs[-1]["cycles"]  # deterministic across repeats
    events = runs[-1]["events"]
    return {
        "kind": case.kind,
        "cycles": cycles,
        "events": events,
        "wall_s": wall,
        "wall_all": [run["wall_s"] for run in runs],
        "cycles_per_sec": cycles / wall if wall > 0 else 0.0,
        "events_per_sec": events / wall if wall > 0 else 0.0,
    }


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
_BENCH_RE = re.compile(r"^BENCH_(\d+)\.json$")


def latest_bench_path(directory: str) -> Optional[Path]:
    """The highest-numbered ``BENCH_<n>.json`` in *directory*."""
    best: Optional[Tuple[int, Path]] = None
    for path in Path(directory).glob("BENCH_*.json"):
        match = _BENCH_RE.match(path.name)
        if match and (best is None or int(match.group(1)) > best[0]):
            best = (int(match.group(1)), path)
    return best[1] if best else None


def next_bench_path(directory: str) -> Path:
    """The next free ``BENCH_<n>.json`` slot in *directory*."""
    latest = latest_bench_path(directory)
    n = 1
    if latest is not None:
        match = _BENCH_RE.match(latest.name)
        assert match is not None
        n = int(match.group(1)) + 1
    return Path(directory) / f"BENCH_{n}.json"


def render_bench(doc: Dict[str, Any]) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _profile_case(case: PerfCase, cache_root: Optional[str], top: int) -> str:
    """Run *case* once under cProfile; sim cases also run traced so the
    host hotspots land next to the simulation's own profile.

    The header names the engine path (``reference``/``fast``) so saved
    hotspot tables stay attributable once both timing cores exist."""
    import cProfile

    from repro.trace.report import render_host_hotspots

    profile = cProfile.Profile()
    if case.kind == "sim":
        assert case.model is not None and case.app is not None
        config = small_system(case.model, PMPlacement.FAR)
        header = f"# profile {case.name} [engine={config.engine}]"
        app = build_app(case.app, **PERF_PARAMS[case.app])
        with GPUSystem(config, trace=True) as system:
            app.setup(system)
            profile.enable()
            app.run(system)
            profile.disable()
            report = system.trace_report()
        return header + "\n" + report + "\n" + render_host_hotspots(profile, top=top)
    # Non-sim cases build their configs internally off the same default.
    engine = small_system(ModelName.SBRP).engine
    header = f"# profile {case.name} [engine={engine}]"
    profile.enable()
    run_case_once(case, cache_root)
    profile.disable()
    return header + "\n" + render_host_hotspots(profile, top=top)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.perf",
        description="Measure simulator throughput over the pinned "
        "microbenchmark suite.",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="representative subset, 1 repeat (CI gate)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="measurements per case (default: 3, smoke: 1)",
    )
    parser.add_argument(
        "--warmup", type=int, default=None,
        help="discarded warmup runs per case (default: 1; the warmup "
        "also absorbs cold-import costs, keeping rates comparable "
        "between smoke and full runs)",
    )
    parser.add_argument(
        "--dir", default=".",
        help="directory for auto-numbered BENCH_<n>.json (default: .)",
    )
    parser.add_argument(
        "--out", default=None,
        help="exact output path (overrides --dir auto-numbering)",
    )
    parser.add_argument(
        "--cases", nargs="+", default=None, metavar="CASE",
        help="restrict to these case names",
    )
    parser.add_argument(
        "--profile", nargs="?", const="sim.sbrp.gpkvs", default=None,
        metavar="CASE",
        help="print cProfile host hotspots for one case (default: "
        "sim.sbrp.gpkvs) instead of running the suite",
    )
    parser.add_argument(
        "--top", type=int, default=20,
        help="rows of the --profile hotspot table (default: 20)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-case progress"
    )
    args = parser.parse_args(argv)

    import tempfile

    cases = suite_cases(smoke=args.smoke)
    if args.cases is not None:
        known = {case.name: case for case in suite_cases(smoke=False)}
        missing = [name for name in args.cases if name not in known]
        if missing:
            parser.error(f"unknown cases {missing}; have {sorted(known)}")
        cases = [known[name] for name in args.cases]

    with tempfile.TemporaryDirectory(prefix="repro-perf-cache-") as tmp:
        if args.profile is not None:
            known = {case.name: case for case in suite_cases(smoke=False)}
            if args.profile not in known:
                parser.error(
                    f"unknown case {args.profile!r}; have {sorted(known)}"
                )
            print(_profile_case(known[args.profile], tmp, args.top))
            return 0

        repeats = args.repeats if args.repeats is not None else (
            1 if args.smoke else 3
        )
        warmup = args.warmup if args.warmup is not None else 1
        results: Dict[str, Any] = {}
        for case in cases:
            result = measure_case(
                case, repeats=repeats, warmup=warmup, cache_root=tmp
            )
            results[case.name] = result
            if not args.quiet:
                print(
                    f"  {case.name:20s} {result['cycles_per_sec']:>14.0f} "
                    f"cyc/s {result['events_per_sec']:>12.0f} ev/s "
                    f"({result['wall_s']:.3f}s)",
                    file=sys.stderr,
                )

    doc = {
        "schema": 1,
        "suite": "smoke" if args.smoke else "full",
        "repeats": repeats,
        "warmup": warmup,
        "cases": results,
    }
    out = Path(args.out) if args.out is not None else next_bench_path(args.dir)
    out.write_text(render_bench(doc), encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
