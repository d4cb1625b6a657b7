"""Property-based tests (hypothesis) on core structures and invariants."""

import networkx as nx
import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from litmus_strategies import random_litmus, small_dags
from repro import GPUSystem, ModelName, small_system
from repro.common.bitmask import WarpMask
from repro.formal import ExecutionWitness, Order, allowed_crash_images, build_pmo
from repro.formal.crash_states import downward_closed_subsets
from repro.formal.events import all_reads_from
from repro.memory.devices import BandwidthChannel, NVMController
from repro.persistency.sbrp.pbuffer import EntryKind, PersistBuffer

# ----------------------------------------------------------------------
# WarpMask
# ----------------------------------------------------------------------
warp_sets = st.sets(st.integers(0, 31), max_size=8)


@given(warp_sets, warp_sets)
def test_warpmask_or_is_union(a, b):
    ma, mb = WarpMask.from_warps(a), WarpMask.from_warps(b)
    ma.or_with(mb)
    assert set(ma.warps()) == a | b


@given(warp_sets, warp_sets)
def test_warpmask_and_nonzero_iff_intersection(a, b):
    assert WarpMask.from_warps(a).and_nonzero(WarpMask.from_warps(b)) == bool(a & b)


@given(warp_sets, warp_sets)
def test_warpmask_clear_mask_is_difference(a, b):
    ma = WarpMask.from_warps(a)
    ma.clear_mask(WarpMask.from_warps(b))
    assert set(ma.warps()) == a - b


# ----------------------------------------------------------------------
# Bandwidth channel / WPQ
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(st.floats(0, 1e5), st.integers(1, 4096)), min_size=1, max_size=30
    )
)
def test_channel_completions_after_arrival(reqs):
    chan = BandwidthChannel("c", latency=17, bytes_per_cycle=3.5)
    now = 0.0
    for arrival, nbytes in reqs:
        now = max(now, arrival)
        done = chan.transfer(now, nbytes)
        assert done >= now + nbytes / 3.5


@given(st.lists(st.integers(64, 1024), min_size=1, max_size=40))
def test_wpq_accepts_monotonically(sizes):
    nvm = NVMController("n", 10, 5, latency=20, wpq_entries=4)
    accepts = [nvm.write(0, size) for size in sizes]
    assert accepts == sorted(accepts)
    # Acceptance is never earlier than arrival.
    assert all(a >= 0 for a in accepts)


# ----------------------------------------------------------------------
# Persist buffer
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(st.sampled_from(list(EntryKind)), st.integers(1, 0xFF)),
        max_size=30,
    )
)
def test_pbuffer_live_count_matches_entries(ops):
    pb = PersistBuffer(capacity=64)
    for kind, mask in ops:
        pb.append(kind, mask)
    assert pb.live_count() == len(pb.entries())
    # Removing everything empties the buffer.
    for entry in pb.entries():
        pb.remove(entry)
    assert pb.live_count() == 0
    assert pb.head() is None


@given(st.data())
def test_pbuffer_entries_keep_fifo_order(data):
    pb = PersistBuffer(capacity=64)
    n = data.draw(st.integers(1, 20))
    for _ in range(n):
        pb.append(EntryKind.PERSIST, 1)
    removed = data.draw(
        st.sets(st.integers(0, n - 1), max_size=n)
    )
    entries = pb.entries()
    for index in removed:
        pb.remove(entries[index])
    seqs = [e.seq for e in pb.entries()]
    assert seqs == sorted(seqs)


# ----------------------------------------------------------------------
# Formal model
# ----------------------------------------------------------------------
@given(small_dags())
def test_downward_closed_subsets_are_closed(dag):
    for subset in downward_closed_subsets(Order.from_edges(dag.nodes, dag.edges)):
        for node in subset:
            assert nx.ancestors(dag, node) <= subset


@given(small_dags())
def test_downward_closed_contains_empty_and_full(dag):
    subsets = downward_closed_subsets(Order.from_edges(dag.nodes, dag.edges))
    assert frozenset() in subsets
    assert frozenset(dag.nodes) in subsets


@given(random_litmus())
@settings(max_examples=30, deadline=None)
def test_crash_images_are_pmo_consistent(program):
    """Every allowed image respects pmo: a durable write's pmo
    predecessors appear durable too (checked per location presence)."""
    from collections import Counter

    from repro.common.errors import LitmusError

    for reads_from in all_reads_from(program):
        witness = ExecutionWitness(program, reads_from)
        try:
            pmo = build_pmo(witness)
        except LitmusError:
            continue  # infeasible witness
        events = {event.eid: event for event in program.events()}
        writers = Counter(
            (events[eid].loc, events[eid].value) for eid in pmo.nodes
        )
        for image in allowed_crash_images(witness):
            for eid in pmo.nodes:
                event = events[eid]
                if image.get(event.loc, 0) != event.value:
                    continue
                if writers[(event.loc, event.value)] > 1:
                    # Value aliasing: another event wrote the same
                    # value to this location, so the image does not
                    # identify which of them persisted — the
                    # ancestor obligation cannot be pinned on this
                    # event.
                    continue
                for pred in pmo.ancestors(eid):
                    ploc = events[pred].loc
                    # The predecessor's location must hold *some*
                    # durable (non-initial) value.
                    assert image.get(ploc, 0) != 0


# ----------------------------------------------------------------------
# End-to-end: random fenced programs produce pmo-consistent logs
# ----------------------------------------------------------------------
@given(
    st.lists(st.integers(1, 100), min_size=2, max_size=6),
    st.sampled_from([ModelName.SBRP, ModelName.EPOCH]),
)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fenced_chain_prefix_property(values, model):
    """A fully fenced write chain may crash only to a prefix."""
    system = GPUSystem(small_system(model, num_sms=1, threads_per_block=32))
    pm = system.pm_create("chain", 128 * len(values))
    addrs = [pm.base + 128 * i for i in range(len(values))]

    def kernel(w, addrs, values):
        for addr, value in zip(addrs, values):
            yield w.st(addr, value, mask=w.lane == 0)
            yield w.ofence()

    system.launch(kernel, 1, args=(addrs, values))
    system.sync()
    log = system.gpu.subsystem.persist_log
    times = sorted({r.accept_time for r in log.records()}) + [system.now]
    for t in times:
        image = system.gpu.subsystem.crash_image(t)
        present = [image.get(a, 0) == v for a, v in zip(addrs, values)]
        # Durable set must be a prefix of the chain.
        if False in present:
            first_missing = present.index(False)
            assert not any(present[first_missing:]), present
