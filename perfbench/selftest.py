"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py        # from the repository root

Checks, on tiny cases, that the layer wrappers change no result, that a
delay injected into one layer shows up in that layer's self time and in
wall time and nowhere else, that the seed moves the serve and verify
inputs and not the figures inputs, and that ``BENCHMARK.json`` names
exactly the metrics ``run.py`` prints.  Exit status 1 on any failure.
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from layers import LAYERS, Census, Tracer  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _tiny_scenario() -> Dict[str, Any]:
    from repro.bench.runner import run_scenario
    from repro.common.config import ModelName, small_system

    return run_scenario(
        "reduction", small_system(ModelName.SBRP), {"blocks": 2, "per_thread": 1}
    ).to_json()


def _tiny_serve() -> Dict[str, Any]:
    from repro.common.config import ModelName, small_system
    from repro.serve.runner import run_serve_scenario

    params = {"n_requests": 64, "n_keys": 64, "capacity": 128,
              "batch_requests": 32, "rate_per_kcycle": 40.0}
    return run_serve_scenario("serve_kvs", small_system(ModelName.SBRP),
                              params).to_json()


def _tiny_check() -> Dict[str, Any]:
    from repro.check.corpus import corpus_programs
    from repro.check.enumerator import SMOKE_VARIANTS
    from repro.check.oracle import check_program
    from repro.common.config import ModelName

    return check_program(corpus_programs()[0], ModelName.SBRP, SMOKE_VARIANTS)


TINY: List[Callable[[], Dict[str, Any]]] = [_tiny_scenario, _tiny_serve,
                                            _tiny_check]


def _traced(fn: Callable[[], Any], **kwargs: Any) -> tuple:
    tracer = Tracer(**kwargs)
    tracer.install()
    start = perf_counter()
    try:
        result = fn()
    finally:
        wall = perf_counter() - start
        tracer.uninstall()
    return result, tracer, wall


def check_wrappers_change_nothing() -> None:
    for fn in TINY:
        plain = fn()
        traced, tracer, _ = _traced(fn)
        assert traced == plain, f"{fn.__name__}: traced result differs"
        assert sum(tracer.calls) > 0, f"{fn.__name__}: no span recorded"
        assert fn() == plain, f"{fn.__name__}: differs after uninstall"
    census = Census().install()
    try:
        with_census = _tiny_scenario()
        totals = census.collect()
    finally:
        census.uninstall()
    assert with_census == _tiny_scenario(), "census changed a result"
    assert totals["sm.instructions"] == with_census["stats"]["sm.instructions"]


def check_delay_attribution() -> None:
    layer, delay = "persistency", 5e-3
    i = LAYERS.index(layer)
    _, base, base_wall = _traced(_tiny_scenario)
    _, slow, slow_wall = _traced(_tiny_scenario, delay={layer: delay})
    injected = slow.calls[i] * delay
    assert injected > 0.2, f"too little injected ({injected:.3f}s)"
    gained = slow.self_s[i] - base.self_s[i]
    assert abs(gained - injected) < 0.15 * injected, (
        f"{layer}.self_s grew {gained:.3f}s for {injected:.3f}s injected"
    )
    grew = slow_wall - base_wall
    assert abs(grew - injected) < 0.25 * injected, (
        f"wall grew {grew:.3f}s for {injected:.3f}s injected"
    )
    for j, name in enumerate(LAYERS):
        if j == i:
            continue
        moved = abs(slow.self_s[j] - base.self_s[j])
        assert moved < 0.05 * injected + 0.02, (
            f"{name}.self_s moved {moved:.3f}s under a {layer} delay"
        )


def check_seed_moves_inputs() -> None:
    digests = {
        name: [wl.setup(seed)["digest"] for seed in (1, 2)]
        for name, wl in workloads.WORKLOADS.items()
    }
    assert digests["figures"][0] == digests["figures"][1], "figures moved"
    assert digests["serve"][0] != digests["serve"][1], "serve did not move"
    assert digests["verify"][0] != digests["verify"][1], "verify did not move"


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END_UNITS, "end_to_end names/units drifted"
    assert layer == run.per_layer_units(), "per_layer names/units drifted"
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        workloads.WORKLOADS
    ), "workload names drifted"


CHECKS = [
    check_wrappers_change_nothing,
    check_delay_attribution,
    check_seed_moves_inputs,
    check_benchmark_json,
]


def main() -> int:
    failed = 0
    for check in CHECKS:
        try:
            check()
        except Exception:  # noqa: BLE001 - report every check
            failed += 1
            print(f"FAIL {check.__name__}")
            traceback.print_exc()
        else:
            print(f"ok   {check.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
