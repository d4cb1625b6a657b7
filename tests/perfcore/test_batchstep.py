"""The fast core replays the reference engine's warp issue order exactly.

This file once also covered a batched warp-stepping core; that core is
gone, and the tests keep their names while comparing reference vs fast.

The fast core (:mod:`repro.gpu.fastcore`) keeps a FIFO for due-now
events beside the heap and a cached slot-ordered warp list for the
round-robin pick.  Its equivalence claim is that neither can move the
observable issue order — including same-cycle round-robin ties and FIFO
ties between warps whose ready times collide.

These tests drive randomly generated per-warp op programs (computes
with colliding latencies, PM stores, PM loads, optional block barriers)
through the reference engine and the fast core, logging every generator
resume from *inside* the kernel.  The two logs must be identical
element-for-element, and the runs must agree on final time and total
event count.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import ModelName, small_system
from repro.system import GPUSystem

#: Warps per block on the ``small_system`` shape (128 threads / 32).
WPB = 4

#: Op alphabet.  Duplicate compute latencies are deliberate: equal
#: latencies make many warps ready on the same cycle, which is exactly
#: where the round-robin pick and the FIFO tie-break live.
OPS = st.sampled_from(
    [("c", 1), ("c", 1), ("c", 2), ("c", 2), ("c", 4), ("st", 3), ("ld", 0)]
)

PROGRAM = st.lists(OPS, min_size=1, max_size=6)


@st.composite
def workloads(draw):
    n_blocks = draw(st.integers(min_value=1, max_value=2))
    programs = {
        (block, warp): draw(PROGRAM)
        for block in range(n_blocks)
        for warp in range(WPB)
    }
    barrier_blocks = draw(
        st.sets(st.integers(min_value=0, max_value=n_blocks - 1))
    )
    return n_blocks, programs, barrier_blocks


def run_workload(
    engine: str,
    n_blocks: int,
    programs: Dict[Tuple[int, int], List[Tuple[str, int]]],
    barrier_blocks,
):
    """One run; returns (issue log, final time, events processed)."""
    config = replace(small_system(ModelName.SBRP), engine=engine)
    system = GPUSystem(config)
    data = system.pm_create("issueprop.data", 4 * n_blocks * 128)
    log: List[Tuple] = []

    def kernel(w):
        key = (w.block_id, w.warp_in_block)
        for step, (kind, arg) in enumerate(programs[key]):
            log.append((key, step, system.now))
            if kind == "c":
                yield w.compute(arg)
            elif kind == "st":
                yield w.st(data.base + 4 * w.tid, arg + w.lane)
            else:
                yield w.ld(data.base + 4 * w.tid)
        if w.block_id in barrier_blocks:
            log.append((key, "barrier", system.now))
            yield w.sync()

    system.launch(kernel, n_blocks, name="issueprop")
    system.sync()
    return log, system.now, int(system.stat("engine.events_processed"))


@settings(max_examples=40, deadline=None)
@given(workloads())
def test_batched_issue_order_matches_reference(workload):
    n_blocks, programs, barrier_blocks = workload
    ref_log, ref_now, ref_events = run_workload(
        "reference", n_blocks, programs, barrier_blocks
    )
    log, now, events = run_workload("fast", n_blocks, programs, barrier_blocks)
    assert log == ref_log, "fast core diverged from reference issue order"
    assert now == ref_now
    assert events == ref_events


def test_single_warp_cohort_inlines_whole_program():
    """One block whose warps all run the same short program: every warp
    is ready on the same cycles, so each step is a round-robin tie."""
    programs = {(0, w): [("c", 1), ("c", 1), ("st", 3)] for w in range(WPB)}
    ref = run_workload("reference", 1, programs, set())
    assert run_workload("fast", 1, programs, set()) == ref
