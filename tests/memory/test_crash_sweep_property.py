"""One persist-log sweep gives the same crash images as per-instant
rebuilds.

``MemorySubsystem.crash_images`` sorts the log once and overlays records
over ascending instants; the reference here is the per-instant
definition (host-durable words overlaid with every record accepted by
the instant, in acceptance order, torn first when an injector is
active).  Random logs have tied acceptance times, repeated words and
out-of-order acceptance, so ties, no-op records and sorting all matter.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import GPUConfig, MemoryConfig
from repro.common.stats import StatsRegistry
from repro.faults.injector import FaultInjector
from repro.faults.plans import TornPersistPlan
from repro.memory.address_space import PM_BASE
from repro.memory.backing import BackingStore
from repro.memory.subsystem import MemorySubsystem, PersistRecord

addrs = st.integers(0, 5).map(lambda k: PM_BASE + 4 * k)
words = st.dictionaries(addrs, st.integers(0, 3), min_size=1, max_size=4)
records = st.lists(st.tuples(st.integers(0, 8), words), max_size=12)
instants = st.lists(
    st.integers(0, 20).map(lambda t: t / 2), max_size=16
).map(sorted)
plans = st.sampled_from(
    [
        None,
        TornPersistPlan(mode="last", span_cycles=2.0, seed=3),
        TornPersistPlan(mode="window", span_cycles=3.0, seed=5),
    ]
)


def reference_image(sub, plan, time):
    image = dict(sub.backing.durable)
    accepted = sub.persist_log.records_until(time)
    if plan is not None:
        accepted = FaultInjector(plan).torn_records(accepted, time)
    for record in accepted:
        image.update(record.words)
    return image


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(addrs, st.integers(0, 3), max_size=4),
    records,
    instants,
    plans,
)
def test_sweep_matches_per_instant_images(durable, log, times, plan):
    faults = FaultInjector(plan) if plan is not None else None
    sub = MemorySubsystem(
        MemoryConfig(), GPUConfig(), BackingStore(), StatsRegistry(),
        faults=faults,
    )
    sub.backing.durable.update(durable)
    for seq, (accept, line_words) in enumerate(log, start=1):
        record = PersistRecord(seq, 0, PM_BASE, line_words, accept)
        sub.persist_log.append(record)

    swept = list(sub.crash_images(times))
    images = [image for image, _ in swept]
    assert images == [reference_image(sub, plan, t) for t in times]
    assert images == [sub.crash_image(t) for t in times]
    for i, (image, changed) in enumerate(swept):
        assert changed == (i == 0 or image != images[i - 1])


def test_sweep_rejects_descending_instants():
    sub = MemorySubsystem(
        MemoryConfig(), GPUConfig(), BackingStore(), StatsRegistry()
    )
    with pytest.raises(ValueError):
        list(sub.crash_images([2.0, 1.0]))
