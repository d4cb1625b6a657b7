"""Executable formal model of SBRP (Boxes 1 and 2 of the paper).

The paper specifies SBRP axiomatically: program order (``po``), volatile
memory order (``vmo``), and persist memory order (``pmo``), with two
derivation rules (intra-thread via ``oFence``; inter-thread via scoped
``pRel``/``pAcq`` pairs) plus transitivity.  This subpackage makes the
specification executable:

* :mod:`~repro.formal.events` — event vocabulary and litmus programs,
* :mod:`~repro.formal.relations` — builds po / vmo / pmo for a given
  execution witness, each an :class:`~repro.formal.relations.Order`: a
  transitively closed partial order stored as one predecessor and one
  successor bitmask per event id,
* :mod:`~repro.formal.crash_states` — enumerates every crash image the
  model permits (order ideals of pmo, walked once in topological
  order); a :class:`~repro.formal.crash_states.CrashSpace` holds one
  witness's pmo, executed set and ideals so repeated queries (the
  conformance oracle's per-witness memo) build them once,
* :mod:`~repro.formal.litmus` — a litmus-test harness with a library of
  tests covering the paper's examples (message passing, scope
  mismatches, transitivity, dFence), and
* :mod:`~repro.formal.bridge` — runs litmus programs on the timing
  simulator and checks the observed durable states fall within the set
  the axiomatic model allows (model validation).
"""

from repro.formal.events import Event, EventKind, LitmusProgram, Thread
from repro.formal.relations import (
    ExecutionWitness,
    Order,
    build_pmo,
    build_po,
    build_vmo,
)
from repro.formal.crash_states import CrashSpace, allowed_crash_images
from repro.formal.litmus import LITMUS_TESTS, LitmusTest, run_litmus

__all__ = [
    "CrashSpace",
    "Event",
    "EventKind",
    "ExecutionWitness",
    "LITMUS_TESTS",
    "LitmusProgram",
    "LitmusTest",
    "Order",
    "Thread",
    "allowed_crash_images",
    "build_pmo",
    "build_po",
    "build_vmo",
    "run_litmus",
]
