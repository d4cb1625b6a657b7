"""Lazy cache geometry is invisible: L1 ways and L2 sets created on
first touch behave exactly like a cache whose geometry exists up front.

The references below are the eager designs (every way allocated at
construction, first-invalid-else-LRU victims; a list of per-set tag
dicts).  Random operation sequences over colliding tags run through both
the reference and the lazy caches, and every observable — victim way
position, lookup result, dirty-line sweep order, occupancy and
invalidation counts — must agree after every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.fastcore import FastL1Cache
from repro.memory.cache import CacheLine, L1Cache, TagCache

LINE = 128
ASSOC = 4
SETS = 2


class EagerL1:
    """Every way allocated up front; the original victim rule."""

    def __init__(self) -> None:
        self._sets = [[CacheLine() for _ in range(ASSOC)] for _ in range(SETS)]

    def _ways(self, line_addr):
        return self._sets[(line_addr // LINE) % SETS]

    def lines(self):
        return [line for ways in self._sets for line in ways]

    def lookup(self, line_addr, now=0.0):
        for line in self._ways(line_addr):
            if line.valid and line.tag == line_addr:
                line.last_use = now
                return line
        return None

    def victim_for(self, line_addr):
        ways = self._ways(line_addr)
        for line in ways:
            if not line.valid:
                return line
        return min(ways, key=lambda line: line.last_use)

    fill = L1Cache.fill

    def drop_line(self, line):
        line.reset()

    def _invalidate(self, doomed):
        dropped = [line for line in self.lines() if line.valid and doomed(line)]
        for line in dropped:
            line.reset()
        return len(dropped)

    def invalidate_clean_pm(self):
        return self._invalidate(lambda line: line.is_pm and not line.dirty)

    def invalidate_pm(self):
        return self._invalidate(lambda line: line.is_pm)

    def invalidate_all(self):
        return self._invalidate(lambda line: True)

    def dirty_pm_lines(self):
        return [l for l in self.lines() if l.valid and l.dirty and l.is_pm]

    def occupancy(self):
        return sum(1 for line in self.lines() if line.valid)


def position(cache, line):
    """(set, way) of *line* in *cache*, or None."""
    if line is None:
        return None
    for s, ways in enumerate(cache._sets):
        for w, way in enumerate(ways):
            if way is line:
                return (s, w)
    raise AssertionError("line is not one of the cache's ways")


tags = st.integers(0, 2 * SETS * ASSOC - 1).map(lambda i: i * LINE)
times = st.integers(0, 12)
#: Most accesses fill their victim; a blocked eviction leaves it unfilled.
fills = st.sampled_from([True, True, True, False])
access = st.tuples(st.just("access"), tags, st.booleans(), fills, times)
ops = st.one_of(
    access,
    access,
    access,
    st.tuples(st.just("lookup"), tags, times),
    st.tuples(st.just("write"), tags, st.integers(0, 99)),
    st.tuples(st.just("drop"), tags),
    st.tuples(
        st.sampled_from(
            ["invalidate_clean_pm", "invalidate_pm", "invalidate_all"]
        )
    ),
)


def step(cache, op):
    """Apply *op*; return what an observer of *cache* sees."""
    kind = op[0]
    if kind == "access":
        # The SM's protocol: probe, and only on a miss pick a victim
        # (which a blocked eviction may leave unfilled).
        _, tag, is_pm, fill, now = op
        hit = cache.lookup(tag, now)
        if hit is not None:
            return ("hit", position(cache, hit))
        victim = cache.victim_for(tag)
        seen = position(cache, victim)
        if fill:
            cache.fill(victim, tag, is_pm, {tag: 1} if is_pm else None, now)
            if is_pm and now % 2:
                victim.write_words({tag: now})
        return seen
    if kind == "lookup":
        return position(cache, cache.lookup(op[1], op[2]))
    if kind in ("write", "drop"):
        line = cache.lookup(op[1])
        if line is not None and kind == "write":
            line.write_words({op[1]: op[2]})
        elif line is not None:
            cache.drop_line(line)
        return position(cache, line)
    return getattr(cache, kind)()


def observe(cache):
    return (
        [position(cache, line) for line in cache.dirty_pm_lines()],
        cache.occupancy(),
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(ops, max_size=60))
def test_lazy_l1_matches_eager_reference(sequence):
    eager = EagerL1()
    lazy = [
        cls("l1", LINE * ASSOC * SETS, LINE, ASSOC)
        for cls in (L1Cache, FastL1Cache)
    ]
    for op in sequence:
        expected = step(eager, op)
        for cache in lazy:
            assert step(cache, op) == expected, op
            assert observe(cache) == observe(eager), op


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(tags, times, st.booleans()), max_size=60))
def test_lazy_tag_cache_matches_list_of_dicts(accesses):
    l2 = TagCache("l2", LINE * 2 * SETS, LINE, assoc=2)
    reference = [{} for _ in range(l2.num_sets)]
    for line_addr, now, allocate in accesses:
        tags_ = reference[(line_addr // LINE) % l2.num_sets]
        hit = line_addr in tags_
        if hit:
            tags_[line_addr] = now
        elif allocate:
            if len(tags_) >= 2:
                del tags_[min(tags_, key=tags_.get)]
            tags_[line_addr] = now
        assert l2.access(line_addr, now, allocate) == hit
        assert {i: d for i, d in l2._sets.items() if d} == {
            i: d for i, d in enumerate(reference) if d
        }
