"""CLI of the differential harness: reference vs fast, cell by cell.

Runs every cell of the matched grid (``repro.perfcore.grid``) under
both timing cores and fails loudly on any divergence.  The report is a
sorted-key JSON document that is **byte-identical across worker
counts** — CI runs ``--workers 1`` and ``--workers 2`` and ``cmp``\\ s
the outputs, the same discipline every other campaign in this repo
follows.

Command line::

    python -m repro.perfcore.diff                  # full matched grid
    python -m repro.perfcore.diff --smoke          # CI subset
    python -m repro.perfcore.diff --workers 2 --out report.json
    python -m repro.perfcore.diff --cases litmus.sbrp.mp_ofence_split
    python -m repro.perfcore.diff --list           # cell names only

Exit status: 0 when every cell matched, 1 on any mismatch or failed
cell.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.exec.executor import positive_int
from repro.perfcore.grid import DiffCell, build_grid, run_cell


def _run_serial(cells: List[DiffCell]) -> List[Dict[str, Any]]:
    return [run_cell(cell.to_json()) for cell in cells]


def _run_pooled(cells: List[DiffCell], workers: int) -> List[Dict[str, Any]]:
    """Fan cells out over a crash-isolated pool; reports come back in
    submission order, so the document is identical to a serial run."""
    from repro.exec.pool import WorkerPool

    outcomes = WorkerPool(workers=workers).run(
        [cell.to_json() for cell in cells],
        run_cell,
        labels=[cell.name for cell in cells],
    )
    reports: List[Dict[str, Any]] = []
    for cell, outcome in zip(cells, outcomes):
        if outcome.ok:
            reports.append(outcome.value)
        else:
            reports.append(
                {
                    "name": cell.name,
                    "kind": cell.kind,
                    "match": False,
                    "mismatches": [f"cell failed: {outcome.status}"],
                    "error": outcome.error,
                }
            )
    return reports


def build_report(
    reports: List[Dict[str, Any]], suite: str, full: bool
) -> Dict[str, Any]:
    """Fold per-cell reports into the output document.

    Without ``full``, matching cells drop their (bulky, equal)
    fingerprints — the match verdict is the information; mismatching
    cells always keep every engine's fingerprint so the divergence is
    diffable from the report alone.
    """
    from repro.perfcore.fingerprint import ENGINES

    cells: Dict[str, Any] = {}
    mismatched: List[str] = []
    for report in reports:
        entry = dict(report)
        if entry["match"] and not full:
            for engine in ENGINES:
                entry.pop(engine, None)
        cells[report["name"]] = entry
        if not report["match"]:
            mismatched.append(report["name"])
    return {
        "schema": 1,
        "suite": suite,
        "cells": cells,
        "total": len(reports),
        "mismatched": sorted(mismatched),
    }


def render_report(doc: Dict[str, Any]) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perfcore.diff",
        description="Prove the fast timing core equivalent to the "
        "reference engine over the matched scenario grid.",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI subset: litmus corpus (sbrp) + one fault cell + one sim cell",
    )
    parser.add_argument(
        "--workers", type=positive_int, default=1,
        help="concurrent worker processes (default: 1 = in-process)",
    )
    parser.add_argument(
        "--cases", nargs="+", default=None, metavar="CELL",
        help="restrict to these cell names",
    )
    parser.add_argument(
        "--out", default=None, help="write the JSON report here"
    )
    parser.add_argument(
        "--full", action="store_true",
        help="keep both fingerprints for matching cells too",
    )
    parser.add_argument(
        "--list", action="store_true", help="print cell names and exit"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress"
    )
    args = parser.parse_args(argv)

    cells = build_grid(smoke=args.smoke)
    if args.cases is not None:
        known = {cell.name: cell for cell in build_grid(smoke=False)}
        missing = [name for name in args.cases if name not in known]
        if missing:
            parser.error(f"unknown cells {missing}; have {sorted(known)}")
        cells = [known[name] for name in args.cases]
    if args.list:
        try:
            for cell in cells:
                print(cell.name)
        except BrokenPipeError:  # `... --list | head` closed the pipe
            sys.stderr.close()
        return 0

    if args.workers > 1:
        reports = _run_pooled(cells, args.workers)
    else:
        reports = _run_serial(cells)

    if not args.quiet:
        for report in reports:
            verdict = "ok" if report["match"] else "MISMATCH"
            print(f"  {report['name']:40s} {verdict}", file=sys.stderr)

    doc = build_report(reports, "smoke" if args.smoke else "full", args.full)
    text = render_report(doc)
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
        if not args.quiet:
            print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text, end="")

    if doc["mismatched"]:
        print(
            f"{len(doc['mismatched'])} of {doc['total']} cells diverged: "
            f"{doc['mismatched']}",
            file=sys.stderr,
        )
        return 1
    if not args.quiet:
        print(
            f"all {doc['total']} cells cycle-identical across engines",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
