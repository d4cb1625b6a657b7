"""Cache models.

:class:`L1Cache` is a set-associative, per-SM cache.  PM lines carry real
word values (so an SM reads its own buffered persists, and cross-SM reads
of PM can be stale until an invalidation — exactly the behaviour scoped
persistency bugs rely on).  Volatile lines are tag-only: GPU L1s are
write-through for global data, so the shared visible image is always
functionally current for volatile reads.

Each L1 line carries the paper's extensions (Section 6): a PM bit and a
persist-buffer index.

:class:`TagCache` is a tag-only set-associative model used for the shared
L2 (timing and hit/miss statistics only).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from typing import DefaultDict, Dict, Iterator, List, Optional

from repro.common.stats import StatsRegistry


@dataclass(slots=True)
class CacheLine:
    """One L1 line with the paper's PM extensions.

    A ``slots`` dataclass: line fields are probed on every load, store
    and eviction, so dropping the per-instance ``__dict__`` measurably
    speeds up the simulator hot path.
    """

    tag: int = -1
    valid: bool = False
    dirty: bool = False
    is_pm: bool = False
    #: Index of the persist-buffer entry owning this line (or None).
    pb_index: Optional[int] = None
    #: Word values for PM lines (addr -> value); empty for volatile lines.
    words: Dict[int, int] = field(default_factory=dict)
    #: Subset of ``words`` written locally since the last flush — the set
    #: a write-back persists.  Flushing only locally written words keeps
    #: non-coherent L1s from clobbering other SMs' updates to the same
    #: line with a stale fetched snapshot.
    dirty_words: Dict[int, int] = field(default_factory=dict)
    last_use: float = 0.0

    def write_words(self, words: "Dict[int, int]") -> None:
        """Apply locally written words (store path)."""
        self.words.update(words)
        self.dirty_words.update(words)
        self.dirty = True

    def reset(self) -> None:
        self.tag = -1
        self.valid = False
        self.dirty = False
        self.is_pm = False
        self.pb_index = None
        self.words = {}
        self.dirty_words = {}


class L1Cache:
    """Per-SM set-associative L1 with PM-aware lines."""

    def __init__(
        self,
        name: str,
        size: int,
        line_size: int,
        assoc: int,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.name = name
        self.line_size = line_size
        self.assoc = assoc
        self.num_sets = size // (line_size * assoc)
        if self.num_sets < 1:
            raise ValueError(f"{name}: cache too small for its geometry")
        #: Ways are allocated on first use.  Invariant: each set's
        #: allocated ways are a prefix of its *assoc* ways, and every
        #: way past that prefix is invalid — so the first-invalid-else-
        #: LRU victim rule picks the same way position as a cache whose
        #: ways all exist up front, and sweeps see the same lines in the
        #: same set-major order.  A litmus machine touches a handful of
        #: lines, so it builds only those.
        self._sets: List[List[CacheLine]] = [[] for _ in range(self.num_sets)]
        self.stats = stats if stats is not None else StatsRegistry()

    # ------------------------------------------------------------------
    # addressing helpers
    # ------------------------------------------------------------------
    def line_addr(self, addr: int) -> int:
        return addr - (addr % self.line_size)

    def _set_index(self, line_addr: int) -> int:
        return (line_addr // self.line_size) % self.num_sets

    # ------------------------------------------------------------------
    # lookup / fill
    # ------------------------------------------------------------------
    def lookup(self, line_addr: int, now: float = 0.0) -> Optional[CacheLine]:
        """Return the resident line for *line_addr*, updating LRU state."""
        for line in self._sets[self._set_index(line_addr)]:
            if line.valid and line.tag == line_addr:
                line.last_use = now
                return line
        return None

    def victim_for(self, line_addr: int) -> CacheLine:
        """Choose the fill target for *line_addr*: an invalid way if one
        exists, else the LRU way.  The caller decides what to do with a
        dirty victim before overwriting it."""
        index = self._set_index(line_addr)
        ways = self._sets[index]
        for line in ways:
            if not line.valid:
                return line
        if len(ways) < self.assoc:
            return self._allocate_way(index, ways)
        return min(ways, key=lambda line: line.last_use)

    def _allocate_way(self, index: int, ways: List[CacheLine]) -> CacheLine:
        """Append a fresh (invalid) way to set *index*."""
        line = CacheLine()
        ways.append(line)
        return line

    def fill(
        self,
        line: CacheLine,
        line_addr: int,
        is_pm: bool,
        words: Optional[Dict[int, int]] = None,
        now: float = 0.0,
    ) -> None:
        """Install *line_addr* into a (previously chosen) way."""
        line.tag = line_addr
        line.valid = True
        line.dirty = False
        line.is_pm = is_pm
        line.pb_index = None
        line.words = dict(words) if words else {}
        line.dirty_words = {}
        line.last_use = now

    # ------------------------------------------------------------------
    # invalidation (epoch barriers, device-scope acquires)
    # ------------------------------------------------------------------
    def drop_line(self, line: CacheLine) -> None:
        """Invalidate a single resident line (eviction write-back).
        Subclasses that index lines by tag must prune here as well."""
        line.reset()

    def invalidate_clean_pm(self) -> int:
        """Drop clean PM lines (device-scope pAcq under SBRP).  Dirty PM
        lines hold this SM's own buffered persists and stay."""
        dropped = 0
        for line in self._lines():
            if line.valid and line.is_pm and not line.dirty:
                line.reset()
                dropped += 1
        return dropped

    def invalidate_pm(self) -> int:
        """Drop all (now clean) PM lines — the epoch barrier's behaviour
        after it has flushed dirty persists."""
        dropped = 0
        for line in self._lines():
            if line.valid and line.is_pm:
                line.reset()
                dropped += 1
        return dropped

    def invalidate_all(self) -> int:
        """Drop everything — GPM's system-scope fence hits volatile lines
        too, which is precisely its extra cost over the PM-only epoch."""
        dropped = 0
        for line in self._lines():
            if line.valid:
                line.reset()
                dropped += 1
        return dropped

    # ------------------------------------------------------------------
    # iteration
    # ------------------------------------------------------------------
    def _lines(self) -> Iterator[CacheLine]:
        """Every allocated way, set-major then way order."""
        return chain.from_iterable(self._sets)

    def dirty_pm_lines(self) -> List[CacheLine]:
        return [
            line
            for line in self._lines()
            if line.valid and line.dirty and line.is_pm
        ]

    def occupancy(self) -> int:
        return sum(1 for line in self._lines() if line.valid)


class TagCache:
    """Tag-only set-associative cache (the shared L2 timing model)."""

    def __init__(
        self,
        name: str,
        size: int,
        line_size: int,
        assoc: int = 8,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.name = name
        self.line_size = line_size
        self.assoc = assoc
        self.num_sets = max(1, size // (line_size * assoc))
        #: Set index -> {tag: last use}, created on first touch.
        self._sets: DefaultDict[int, Dict[int, float]] = defaultdict(dict)
        self.stats = stats if stats is not None else StatsRegistry()

    def access(self, line_addr: int, now: float, allocate: bool = True) -> bool:
        """Touch *line_addr*; return True on hit.  Misses allocate with
        LRU replacement when *allocate*."""
        index = (line_addr // self.line_size) % self.num_sets
        tags = self._sets[index]
        if line_addr in tags:
            tags[line_addr] = now
            return True
        if allocate:
            if len(tags) >= self.assoc:
                evict = min(tags, key=tags.get)  # type: ignore[arg-type]
                del tags[evict]
            tags[line_addr] = now
        return False
