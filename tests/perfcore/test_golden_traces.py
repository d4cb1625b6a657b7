"""Golden-trace regression pins: 3 models x 6 apps, plus the 3 serve cells.

``golden_traces.json`` snapshots the exact end-to-end behaviour of the
pre-fastcore seed — cycle counts, engine event counts, every stats
counter, and hashes of the crash image and metrics snapshot — for each
persistency model on each of the six Table 2 apps (hashmap, multiqueue
and srad were pinned later, on the code just before the SBRP drain's
resumable held-prefix scan).  Both engines — reference
and fast — must still reproduce those payloads bit-for-bit: any future
engine change that shifts timing fails here with a field-level diff,
not silently.

The three ``serve.<model>.kvs`` cases pin the diff grid's serve cells
(cycles, every stat including ``serve.recovery_cycles``, and hashes of
the scenario detail and metrics snapshot), so a change that both
engines share cannot move the serving numbers unnoticed.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.perfcore.goldens import case_fingerprint

GOLDEN_PATH = Path(__file__).parent / "golden_traces.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

#: Fields a run must reproduce exactly, per case kind.
PINNED_FIELDS = {
    "sim": (
        "cycles",
        "events",
        "stats",
        "crash_image_sha256",
        "metrics_snapshot_sha256",
    ),
    "serve": ("cycles", "stats", "detail_sha256", "metrics_sha256"),
}


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize("key", sorted(GOLDEN["cases"]))
def test_golden_trace(key: str, engine: str):
    case = GOLDEN["cases"][key]
    got = case_fingerprint(case, engine)
    assert "error" not in got, got
    mismatched = {
        field: {"want": case[field], "got": got[field]}
        for field in PINNED_FIELDS[case.get("kind", "sim")]
        if got[field] != case[field]
    }
    assert not mismatched, (
        f"{engine} engine diverged from the golden trace on {key}: "
        f"{json.dumps(mismatched, indent=2, default=str)[:2000]}"
    )


def test_golden_file_covers_full_matrix():
    cases = GOLDEN["cases"].values()
    sim = [case for case in cases if case.get("kind", "sim") == "sim"]
    serve = [case for case in cases if case.get("kind") == "serve"]
    assert {case["model"] for case in sim} == {"gpm", "epoch", "sbrp"}
    assert {case["app"] for case in sim} == {
        "gpkvs", "hashmap", "multiqueue", "reduction", "scan", "srad"
    }
    assert {case["model"] for case in serve} == {"gpm", "epoch", "sbrp"}
    assert {case["app"] for case in serve} == {"serve_kvs"}
    assert len(sim) == 18 and len(serve) == 3
    assert len(GOLDEN["cases"]) == 21
