"""Event vocabulary for the axiomatic model.

A litmus program is a handful of threads, each a straight-line list of
events over named locations.  PM locations are written ``"pX"`` (their
names start with ``p``); everything else is volatile — the convention
keeps litmus tests readable.

Scopes follow the paper: each thread belongs to a threadblock; a scoped
release/acquire pair only synchronizes when its scope covers both
threads (``BLOCK`` requires the same block, ``DEVICE``/``SYSTEM`` always
cover — the model is single-GPU).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.common.config import Scope
from repro.common.errors import LitmusError


class EventKind(enum.Enum):
    W = "write"  # PM write (persist)
    WV = "volatile-write"
    R = "read"
    OFENCE = "ofence"
    DFENCE = "dfence"
    PACQ = "pacq"
    PREL = "prel"


@dataclass(frozen=True)
class Event:
    """One event of a litmus program."""

    eid: int
    tid: int
    kind: EventKind
    loc: Optional[str] = None
    value: int = 0
    scope: Optional[Scope] = None

    @property
    def is_persist(self) -> bool:
        return self.kind is EventKind.W

    def __repr__(self) -> str:
        parts = [f"T{self.tid}", self.kind.name]
        if self.loc is not None:
            parts.append(f"{self.loc}={self.value}" if self._writes else self.loc)
        if self.scope is not None:
            parts.append(self.scope.value)
        return f"<{':'.join(parts)}#{self.eid}>"

    @property
    def _writes(self) -> bool:
        return self.kind in (EventKind.W, EventKind.WV, EventKind.PREL)


class Thread:
    """Builder for one thread's straight-line event list."""

    def __init__(self, tid: int, block: int, counter) -> None:
        self.tid = tid
        self.block = block
        self._counter = counter
        self.events: List[Event] = []

    def _add(self, kind: EventKind, loc=None, value=0, scope=None) -> "Thread":
        self.events.append(
            Event(next(self._counter), self.tid, kind, loc, value, scope)
        )
        return self

    def w(self, loc: str, value: int) -> "Thread":
        """Write; PM iff the location name starts with 'p'."""
        kind = EventKind.W if loc.startswith("p") else EventKind.WV
        return self._add(kind, loc, value)

    def r(self, loc: str) -> "Thread":
        return self._add(EventKind.R, loc)

    def ofence(self) -> "Thread":
        return self._add(EventKind.OFENCE)

    def dfence(self) -> "Thread":
        return self._add(EventKind.DFENCE)

    def pacq(self, loc: str, scope: Scope = Scope.BLOCK) -> "Thread":
        return self._add(EventKind.PACQ, loc, 0, scope)

    def prel(self, loc: str, value: int, scope: Scope = Scope.BLOCK) -> "Thread":
        return self._add(EventKind.PREL, loc, value, scope)


class LitmusProgram:
    """A multi-threaded litmus program with a block assignment."""

    def __init__(self, name: str = "litmus") -> None:
        self.name = name
        self._counter = itertools.count()
        self.threads: List[Thread] = []

    def thread(self, block: int = 0) -> Thread:
        thread = Thread(len(self.threads), block, self._counter)
        self.threads.append(thread)
        return thread

    def block_of(self, tid: int) -> int:
        return self.threads[tid].block

    def scope_covers(self, scope: Scope, tid_a: int, tid_b: int) -> bool:
        """Whether *scope* includes both threads (Box 2's "sufficient
        scope that includes both threads")."""
        if scope in (Scope.DEVICE, Scope.SYSTEM):
            return True
        return self.block_of(tid_a) == self.block_of(tid_b)

    def events(self) -> List[Event]:
        return [event for thread in self.threads for event in thread.events]

    def persists(self) -> List[Event]:
        return [event for event in self.events() if event.is_persist]

    def releases(self) -> List[Event]:
        return [e for e in self.events() if e.kind is EventKind.PREL]

    def acquires(self) -> List[Event]:
        return [e for e in self.events() if e.kind is EventKind.PACQ]

    def validate(self) -> "LitmusProgram":
        if not self.threads:
            raise LitmusError("litmus program has no threads")
        for rel in self.releases():
            if rel.loc is None:
                raise LitmusError("release without a location")
        # An acquire spins until its flag reads positive (0 = not yet
        # released), so a flag that only ever gets 0 or less would hang.
        acquired = {acq.loc for acq in self.acquires()}
        for event in self.events():
            if event._writes and event.loc in acquired and event.value <= 0:
                raise LitmusError(
                    f"{event!r} stores {event.value} to acquired flag "
                    f"{event.loc!r}; acquires wait for a positive value"
                )
        return self

    def op_count(self) -> int:
        """Total number of operations (the shrinker's size metric)."""
        return sum(len(thread.events) for thread in self.threads)

    # ------------------------------------------------------------------
    # serialization (programs ride inside ScenarioJob specs)
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        """Plain-JSON form; :meth:`from_json` rebuilds an equivalent
        program (event ids are reassigned thread-by-thread, which leaves
        every relation unchanged — ids are only internal names)."""
        return {
            "name": self.name,
            "threads": [
                {
                    "block": thread.block,
                    "events": [
                        {
                            "kind": event.kind.name,
                            "loc": event.loc,
                            "value": event.value,
                            "scope": (
                                event.scope.value
                                if event.scope is not None
                                else None
                            ),
                        }
                        for event in thread.events
                    ],
                }
                for thread in self.threads
            ],
        }

    @staticmethod
    def from_json(data: Dict[str, Any]) -> "LitmusProgram":
        program = LitmusProgram(data.get("name", "litmus"))
        for tdata in data["threads"]:
            thread = program.thread(block=tdata["block"])
            for edata in tdata["events"]:
                scope = (
                    Scope(edata["scope"])
                    if edata.get("scope") is not None
                    else None
                )
                thread._add(
                    EventKind[edata["kind"]],
                    loc=edata.get("loc"),
                    value=edata.get("value", 0),
                    scope=scope,
                )
        return program.validate()


#: A synchronization witness: which release each acquire reads from.
ReadsFrom = Dict[int, Optional[int]]  # acquire eid -> release eid (or None)


def all_reads_from(program: LitmusProgram) -> List[ReadsFrom]:
    """Enumerate every way the program's acquires could pair with same-
    location releases (or observe none).  Scope filtering happens during
    pmo construction; this is the raw combinatorial space."""
    acquires = program.acquires()
    options: List[List[Tuple[int, Optional[int]]]] = []
    for acq in acquires:
        candidates: List[Optional[int]] = [None]
        candidates += [
            rel.eid for rel in program.releases() if rel.loc == acq.loc
        ]
        options.append([(acq.eid, c) for c in candidates])
    witnesses: List[ReadsFrom] = []
    for combo in itertools.product(*options) if options else [()]:
        witnesses.append(dict(combo))
    return witnesses
