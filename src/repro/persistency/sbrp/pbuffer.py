"""The per-SM FIFO persist buffer (PB) of Section 6.

Each entry is either a *persist* (pointing at a dirty L1 line) or an
*ordering point* (oFence / dFence / scoped pAcq / pRel), tagged with a
Warp BM recording which warp slots issued it.  The drain scan retires
entries in FIFO order, moving past delayed ones; a persist may
additionally leave out of order through a *tombstone* — an out-of-order
removal — when a capacity eviction is allowed to bypass (no ordering
entry precedes it).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.common.config import Scope

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.warp import Warp


class EntryKind(enum.Enum):
    PERSIST = "persist"
    OFENCE = "ofence"
    DFENCE = "dfence"
    PACQ = "pacq"
    PREL = "prel"

    @property
    def is_order(self) -> bool:
        return self is not EntryKind.PERSIST


@dataclass(slots=True)
class PBEntry:
    """One persist-buffer entry (44 bits of real hardware state)."""

    seq: int
    kind: EntryKind
    warp_mask: int
    #: Line address for persists (the hardware stores an L1 line index).
    line_addr: int = 0
    scope: Optional[Scope] = None
    #: Release payload (device-scope pRel publishes on completion).
    flag_addr: Optional[int] = None
    flag_value: int = 0
    #: Set once the entry has left the buffer (drained, retired or
    #: flushed out of order by a capacity eviction).
    evicted: bool = False
    #: Warps stalled until this entry is flushed and acknowledged (the
    #: EDM coalescing-conflict stall of Section 6.1).
    waiters: List["Warp"] = field(default_factory=list)
    #: Warp blocked on this entry's completion (device-scope pRel and
    #: dFence stall their issuer until the ACTR reaches zero).
    waiting_warp: Optional["Warp"] = None


class PersistBuffer:
    """FIFO of :class:`PBEntry` with live-entry accounting.

    The live entries sit in one insertion-ordered dict keyed by sequence
    number: appends go to the back, and a removal from anywhere (head
    retirement, the drain scan, an eviction bypass) is one O(1) delete.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        #: Live entries in FIFO order, keyed by sequence number.
        self.live: Dict[int, PBEntry] = {}
        self._seq = itertools.count(1)
        self._order_entries = 0
        self.peak_occupancy = 0

    # ------------------------------------------------------------------
    # occupancy
    # ------------------------------------------------------------------
    def live_count(self) -> int:
        return len(self.live)

    def is_full(self) -> bool:
        return len(self.live) >= self.capacity

    def has_order_entries(self) -> bool:
        return self._order_entries > 0

    def __len__(self) -> int:
        return len(self.live)

    def __bool__(self) -> bool:
        return bool(self.live)

    # ------------------------------------------------------------------
    # append / lookup
    # ------------------------------------------------------------------
    def append(
        self,
        kind: EntryKind,
        warp_mask: int,
        line_addr: int = 0,
        scope: Optional[Scope] = None,
        flag_addr: Optional[int] = None,
        flag_value: int = 0,
    ) -> PBEntry:
        entry = PBEntry(
            seq=next(self._seq),
            kind=kind,
            warp_mask=warp_mask,
            line_addr=line_addr,
            scope=scope,
            flag_addr=flag_addr,
            flag_value=flag_value,
        )
        self.live[entry.seq] = entry
        if kind is not EntryKind.PERSIST:
            self._order_entries += 1
        if len(self.live) > self.peak_occupancy:
            self.peak_occupancy = len(self.live)
        return entry

    def get(self, seq: int) -> Optional[PBEntry]:
        """The live entry with sequence number *seq*, if any."""
        return self.live.get(seq)

    def head(self) -> Optional[PBEntry]:
        """The oldest live entry."""
        return next(iter(self.live.values()), None)

    def tail(self) -> Optional[PBEntry]:
        """The youngest live entry (for oFence coalescing)."""
        return next(reversed(self.live.values()), None)

    # ------------------------------------------------------------------
    # removal
    # ------------------------------------------------------------------
    def pop_head(self) -> PBEntry:
        entry = self.head()
        if entry is None:
            raise IndexError("pop from empty persist buffer")
        self.remove(entry)
        return entry

    def remove(self, entry: PBEntry) -> None:
        """Retire an entry from anywhere in the FIFO (the drain scan
        retires entries past delayed ones)."""
        if entry.evicted:
            raise ValueError(f"entry {entry.seq} already removed")
        entry.evicted = True
        del self.live[entry.seq]
        if entry.kind is not EntryKind.PERSIST:
            self._order_entries -= 1

    def tombstone(self, entry: PBEntry) -> None:
        """Flush a persist out of FIFO order (allowed eviction bypass)."""
        if entry.kind is not EntryKind.PERSIST:
            raise ValueError("only persists can be tombstoned")
        self.remove(entry)

    def order_entry_before(self, seq: int) -> bool:
        """True when a live ordering entry precedes *seq* in the FIFO
        (the paper's eviction-legality check)."""
        for entry in self.live.values():
            if entry.seq >= seq:
                break
            if entry.kind.is_order:
                return True
        return False

    def entries(self) -> List[PBEntry]:
        """Live entries in FIFO order (debug / test aid)."""
        return list(self.live.values())
