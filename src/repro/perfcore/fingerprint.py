"""Canonical per-run fingerprints for the differential harness.

Each function runs one scenario under one named engine and reduces the
run to a plain-JSON dict whose equality *is* the equivalence claim:
two engines agree on a scenario exactly when their fingerprints are
equal.  Everything observable goes in — simulated cycles, engine event
counts, the full stats-counter map, a hash of the metrics snapshot and
of the durable crash image, and (for litmus programs) the complete
simulator observation the conformance oracle consumes.

Fingerprints are deterministic: no wall-clock, no unseeded randomness,
sorted keys throughout.  A scenario that *raises* fingerprints as its
exception type and message — a wedge must wedge identically under both
engines.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from typing import Any, Dict, List, Mapping

from repro.common.config import ModelName, PMPlacement, small_system

#: Engines the harness pairs up, in report order.  ``reference`` is the
#: oracle; ``fast`` is diffed against it.
ENGINES = ("reference", "fast")


def canonical_json(payload: Any) -> str:
    """Compact, sorted-key JSON — the hashable canonical form."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def sha256_of(payload: Any) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def _image_items(image: Mapping[str, int]) -> List[List[Any]]:
    """A location->value image as sorted [loc, value] pairs."""
    return [[loc, int(value)] for loc, value in sorted(image.items())]


# ----------------------------------------------------------------------
# cold app simulation
# ----------------------------------------------------------------------
def sim_fingerprint(
    model: str,
    app: str,
    params: Mapping[str, Any],
    engine: str,
) -> Dict[str, Any]:
    """Run *app* under *model* on *engine*; fingerprint everything.

    The run mirrors a ``bench.perf`` sim case (``small_system``, FAR
    placement) but with live metrics on and a post-run ``sync()`` +
    crash so the durable image and the metrics snapshot participate in
    the equivalence check, not just timing.
    """
    from repro.apps import build_app
    from repro.system import GPUSystem

    config = replace(
        small_system(ModelName(model), PMPlacement.FAR), engine=engine
    )
    system = GPUSystem(config, metrics=True)
    app_obj = build_app(app, **dict(params))
    try:
        app_obj.setup(system)
        app_obj.run(system)
        system.sync()
    except Exception as err:  # noqa: BLE001 - wedges must match too
        return {"error": f"{type(err).__name__}: {err}"}
    image = system.crash()
    return {
        "cycles": system.total_cycles(),
        "events": int(system.stat("engine.events_processed")),
        "stats": dict(sorted(system.stats.snapshot().items())),
        "crash_image_sha256": sha256_of(
            {str(addr): value for addr, value in sorted(image.pm.items())}
        ),
        "metrics_snapshot_sha256": sha256_of(system.metrics_snapshot()),
    }


# ----------------------------------------------------------------------
# litmus programs
# ----------------------------------------------------------------------
def litmus_fingerprint(
    program_json: Mapping[str, Any],
    model: str,
    variants_json: List[Mapping[str, Any]],
    crash_points: int,
    engine: str,
) -> Dict[str, Any]:
    """Run one corpus program under every variant on *engine*.

    The fingerprint is the full :class:`SimulationObservation` per
    variant — observed crash images with first-seen times, the witness
    (which release each acquire read), dFence durable images, and the
    final post-drain image.  This is exactly what the conformance
    oracle judges, so equality here means the fast engine cannot change
    any conformance verdict.
    """
    from repro.check.enumerator import Variant
    from repro.formal.bridge import simulate_program
    from repro.formal.events import LitmusProgram

    program = LitmusProgram.from_json(dict(program_json))
    name = ModelName(model)
    per_variant: List[Dict[str, Any]] = []
    for variant_json in variants_json:
        variant = Variant.from_json(variant_json)
        config = replace(variant.configure(program, name), engine=engine)
        try:
            obs = simulate_program(
                program,
                model=name,
                config=config,
                crash_points=crash_points,
                thread_order=variant.thread_order(program),
            )
        except Exception as err:  # noqa: BLE001 - wedges must match too
            per_variant.append(
                {
                    "variant": variant.name,
                    "error": f"{type(err).__name__}: {err}",
                }
            )
            continue
        per_variant.append(
            {
                "variant": variant.name,
                "end": obs.end,
                "images": [
                    [time, _image_items(image)] for time, image in obs.images
                ],
                "final_image": _image_items(obs.final_image),
                "dfence_images": {
                    str(eid): [time, _image_items(image)]
                    for eid, (time, image) in sorted(obs.dfence_images.items())
                },
                "reads_from": {
                    str(eid): source
                    for eid, source in sorted(obs.reads_from.items())
                },
            }
        )
    return {"program": program.name, "variants": per_variant}


# ----------------------------------------------------------------------
# fault-injected scenarios
# ----------------------------------------------------------------------
def fault_fingerprint(
    model: str,
    app: str,
    params: Mapping[str, Any],
    fault: Mapping[str, Any],
    engine: str,
) -> Dict[str, Any]:
    """One fault-injected scenario (run + crash/recover/classify sweep).

    The reproducer spec is scrubbed from the hashed detail: it embeds
    the full config dict, whose ``engine`` field necessarily differs
    between the two runs being compared.  Every behavioural field — the
    run classification, each crash point's time and classification, the
    injected-fault counts, the outcome — is compared verbatim.
    """
    from repro.faults.runner import run_fault_scenario

    config = replace(
        small_system(ModelName(model), PMPlacement.FAR), engine=engine
    )
    try:
        result = run_fault_scenario(app, config, dict(params), dict(fault))
    except Exception as err:  # noqa: BLE001 - wedges must match too
        return {"error": f"{type(err).__name__}: {err}"}
    detail = dict(result.detail)
    detail.pop("reproducer", None)
    return {
        "cycles": result.cycles,
        "stats": dict(sorted(result.stats.items())),
        "outcome": detail["outcome"],
        "point_counts": detail["point_counts"],
        "detail_sha256": sha256_of(detail),
    }


# ----------------------------------------------------------------------
# serving and soak scenarios
# ----------------------------------------------------------------------
def _scenario_reduction(result: Any) -> Dict[str, Any]:
    """Reduce a ScenarioResult to its engine-comparable core.  The
    ``label`` is deliberately excluded (it names the config, which
    necessarily differs across the engine axis); everything behavioural
    — cycles, every stat, the structured detail, the full metrics
    snapshot — is compared."""
    return {
        "cycles": result.cycles,
        "stats": dict(sorted(result.stats.items())),
        "detail_sha256": sha256_of(result.detail),
        "metrics_sha256": sha256_of(result.metrics),
    }


def serve_fingerprint(
    model: str, params: Mapping[str, Any], engine: str
) -> Dict[str, Any]:
    """One serving-subsystem scenario: stream planning, durable
    transactions with adaptive persist-path selection, SLO pricing and
    the worst-case recovery measurement."""
    from repro.serve.runner import run_serve_scenario

    config = replace(small_system(ModelName(model)), engine=engine)
    try:
        result = run_serve_scenario("serve_kvs", config, dict(params))
    except Exception as err:  # noqa: BLE001 - wedges must match too
        return {"error": f"{type(err).__name__}: {err}"}
    return _scenario_reduction(result)


def soak_fingerprint(
    model: str,
    params: Mapping[str, Any],
    soak: Mapping[str, Any],
    engine: str,
) -> Dict[str, Any]:
    """One chaos-soak scenario: a resilient serve stream through a
    chronic fault timeline with crash→recover legs — the heaviest
    composite path the simulator has, covering the chronic injector,
    crash imaging and oracle recovery on top of the serve kernels."""
    from repro.chaos.runner import run_soak_scenario
    from repro.common.config import ResilienceConfig

    config = replace(
        small_system(ModelName(model)),
        engine=engine,
        resilience=ResilienceConfig(enabled=True),
    )
    try:
        result = run_soak_scenario(
            "serve_kvs", config, dict(params), dict(soak)
        )
    except Exception as err:  # noqa: BLE001 - wedges must match too
        return {"error": f"{type(err).__name__}: {err}"}
    return _scenario_reduction(result)


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
def fingerprint(kind: str, payload: Mapping[str, Any], engine: str) -> Dict[str, Any]:
    """Fingerprint one grid cell payload under *engine*."""
    if kind == "sim":
        return sim_fingerprint(
            payload["model"], payload["app"], payload["params"], engine
        )
    if kind == "litmus":
        return litmus_fingerprint(
            payload["program"],
            payload["model"],
            payload["variants"],
            int(payload["crash_points"]),
            engine,
        )
    if kind == "fault":
        return fault_fingerprint(
            payload["model"],
            payload["app"],
            payload["params"],
            payload["fault"],
            engine,
        )
    if kind == "serve":
        return serve_fingerprint(payload["model"], payload["params"], engine)
    if kind == "soak":
        return soak_fingerprint(
            payload["model"], payload["params"], payload["soak"], engine
        )
    raise ValueError(f"unknown diff cell kind {kind!r}")


def diff_paths(
    reference: Any, fast: Any, prefix: str = "", limit: int = 20
) -> List[str]:
    """Dotted paths where two fingerprints disagree (bounded list)."""
    out: List[str] = []
    _walk_diff(reference, fast, prefix, out, limit)
    return out


def _walk_diff(a: Any, b: Any, prefix: str, out: List[str], limit: int) -> None:
    if len(out) >= limit:
        return
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            path = f"{prefix}.{key}" if prefix else str(key)
            if key not in a or key not in b:
                out.append(path)
                if len(out) >= limit:
                    return
                continue
            _walk_diff(a[key], b[key], path, out, limit)
        return
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{prefix}.length" if prefix else "length")
            return
        for index, (item_a, item_b) in enumerate(zip(a, b)):
            _walk_diff(item_a, item_b, f"{prefix}[{index}]", out, limit)
            if len(out) >= limit:
                return
        return
    if a != b:
        out.append(prefix or "<root>")
