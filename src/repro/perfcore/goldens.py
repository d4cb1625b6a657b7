"""Golden-trace management: check and regenerate the pinned traces.

``tests/perfcore/golden_traces.json`` pins the exact end-to-end
behaviour of every sim grid case (cycles, events, stats, crash-image
and metrics hashes) and of every serve grid cell (cycles, stats
including ``serve.recovery_cycles``, detail and metrics hashes).  The *only* legitimate way that file changes is a
deliberate re-pin from the **reference engine** — the oracle the fast
cores are proven against — so this CLI owns the file:

* default mode recomputes every case on the reference engine and fails
  (exit 1, field-level diff paths) if the checked-in file disagrees —
  the golden test suite's check, runnable standalone;
* ``--regenerate`` rewrites the file from the reference engine.  It
  **refuses** when the working-tree copy already differs from git HEAD
  (that is what a hand-edited golden looks like) unless ``--force`` is
  given: regeneration must start from a known-good pin, never launder
  local edits into a new baseline.

Command line::

    python -m repro.perfcore.goldens               # check
    python -m repro.perfcore.goldens --regenerate  # re-pin from reference
    python -m repro.perfcore.goldens --regenerate --force
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.perfcore.fingerprint import (
    diff_paths,
    serve_fingerprint,
    sim_fingerprint,
)
from repro.perfcore.grid import GRID_MODELS, SERVE_PARAMS, SIM_PARAMS

#: Default location, relative to the repository root / CI cwd.
DEFAULT_PATH = Path("tests") / "perfcore" / "golden_traces.json"


def case_fingerprint(case: Dict[str, Any], engine: str) -> Dict[str, Any]:
    """Re-run one pinned case on *engine*: a serve cell (``kind`` is
    ``"serve"``) or, by default, a sim case."""
    if case.get("kind") == "serve":
        return serve_fingerprint(case["model"], case["app_params"], engine)
    return sim_fingerprint(case["model"], case["app"], case["app_params"], engine)


def reference_cases() -> Dict[str, Dict[str, Any]]:
    """Every sim case and serve cell, fingerprinted on the reference
    engine."""
    specs: Dict[str, Dict[str, Any]] = {}
    for model in GRID_MODELS:
        for app, params in SIM_PARAMS.items():
            specs[f"{model.value}.{app}"] = {
                "model": model.value,
                "app": app,
                "app_params": dict(params),
            }
    for model in GRID_MODELS:
        specs[f"serve.{model.value}.kvs"] = {
            "kind": "serve",
            "model": model.value,
            "app": "serve_kvs",
            "app_params": dict(SERVE_PARAMS),
        }
    cases: Dict[str, Dict[str, Any]] = {}
    for name, spec in specs.items():
        fp = case_fingerprint(spec, "reference")
        if "error" in fp:
            raise RuntimeError(
                f"reference run failed for {name}: {fp['error']}"
            )
        cases[name] = {**spec, **fp}
    return cases


def build_document(existing: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """A full golden document from the reference engine.  The machine
    description is carried over from *existing* (the system shape did
    not change with the re-pin unless the grid params did)."""
    machine = (existing or {}).get(
        "machine",
        "small_system(num_sms=4, tpb=128, l1=16K), PMPlacement.FAR, metrics on",
    )
    return {
        "cases": reference_cases(),
        "machine": machine,
        "note": (
            "pinned from the reference engine via "
            "`python -m repro.perfcore.goldens --regenerate` -- any "
            "engine change that shifts timing must fail these"
        ),
    }


def render(doc: Dict[str, Any]) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def check(path: Path) -> List[str]:
    """Dotted paths where the checked-in goldens disagree with a fresh
    reference run (empty = clean)."""
    committed = json.loads(path.read_text(encoding="utf-8"))
    return diff_paths(committed["cases"], reference_cases(), limit=40)


def _git_dirty(path: Path) -> Optional[bool]:
    """True when *path* has uncommitted changes; None when git cannot
    answer (not a repo, git missing) — the caller treats that as clean
    since there is no baseline to diverge from."""
    resolved = path.resolve()
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain", "--", str(resolved)],
            capture_output=True,
            text=True,
            check=True,
            cwd=str(resolved.parent),
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return bool(proc.stdout.strip())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perfcore.goldens",
        description="Check or regenerate the golden traces from the "
        "reference engine.",
    )
    parser.add_argument(
        "--file",
        type=Path,
        default=DEFAULT_PATH,
        help=f"golden-trace file (default: {DEFAULT_PATH})",
    )
    parser.add_argument(
        "--regenerate",
        action="store_true",
        help="rewrite the file from a fresh reference-engine sweep",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="regenerate even when the working-tree file has "
        "uncommitted changes",
    )
    args = parser.parse_args(argv)
    path: Path = args.file
    if not path.exists():
        print(f"no golden file at {path}", file=sys.stderr)
        return 1

    if not args.regenerate:
        mismatches = check(path)
        if mismatches:
            print(
                f"{path} diverges from the reference engine on "
                f"{len(mismatches)} path(s):",
                file=sys.stderr,
            )
            for m in mismatches:
                print(f"  {m}", file=sys.stderr)
            return 1
        print(f"{path} matches the reference engine")
        return 0

    if not args.force and _git_dirty(path):
        print(
            f"{path} already differs from git HEAD -- refusing to "
            "regenerate on top of local (possibly hand-made) edits.  "
            "Commit or revert the file first, or pass --force.",
            file=sys.stderr,
        )
        return 1
    existing = json.loads(path.read_text(encoding="utf-8"))
    doc = build_document(existing)
    path.write_text(render(doc), encoding="utf-8")
    print(f"regenerated {path} ({len(doc['cases'])} cases)")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
