"""The bitmask orders and the oracle's crash-image sets, pinned against
an independent networkx reference.

``nx_build_pmo``, ``nx_allowed_crash_images`` and
``nx_allowed_final_images`` are the original digraph implementation of
Boxes 1 and 2 (explicit ``DiGraph`` relations, ``transitive_closure_dag``
and a 2^n scan for order ideals), kept verbatim in behaviour so every
property below compares two unrelated codings of the same spec.
"""

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings

from litmus_strategies import random_litmus, small_dags, small_digraphs
from repro.common.errors import LitmusError
from repro.formal import (
    ExecutionWitness,
    LitmusProgram,
    Order,
    allowed_crash_images,
    build_pmo,
)
from repro.formal.crash_states import (
    CrashSpace,
    allowed_final_images,
    downward_closed_subsets,
)
from repro.formal.events import EventKind, all_reads_from
from repro.formal.relations import _narrowest


# ----------------------------------------------------------------------
# networkx reference
# ----------------------------------------------------------------------
def nx_build_po(program):
    po = nx.DiGraph()
    for thread in program.threads:
        po.add_nodes_from(e.eid for e in thread.events)
        po.add_edges_from(
            (a.eid, b.eid) for a, b in zip(thread.events, thread.events[1:])
        )
    return po


def nx_build_vmo(witness):
    program = witness.program
    vmo = nx_build_po(program)
    for acq in program.acquires():
        rel = witness.release_of(acq)
        if rel is None:
            continue
        if rel.loc != acq.loc:
            raise LitmusError(
                f"acquire {acq} cannot read release {rel}: different locations"
            )
        if program.scope_covers(_narrowest(rel, acq), rel.tid, acq.tid):
            vmo.add_edge(rel.eid, acq.eid)
    if not nx.is_directed_acyclic_graph(vmo):
        raise LitmusError("infeasible witness: cyclic vmo")
    return nx.transitive_closure_dag(vmo)


def nx_build_pmo(witness):
    program = witness.program
    po = nx.transitive_closure_dag(nx_build_po(program))
    vmo = nx_build_vmo(witness)
    persists = [e for e in program.events() if e.is_persist]
    pmo = nx.DiGraph()
    pmo.add_nodes_from(p.eid for p in persists)

    def order_after(left, tid_left, right, tid_right):
        for w1 in persists:
            if w1.tid == tid_left and po.has_edge(w1.eid, left):
                for w2 in persists:
                    if w2.tid == tid_right and po.has_edge(right, w2.eid):
                        pmo.add_edge(w1.eid, w2.eid)

    for fence in program.events():
        if fence.kind in (EventKind.OFENCE, EventKind.DFENCE):
            order_after(fence.eid, fence.tid, fence.eid, fence.tid)
    for acq in program.acquires():
        rel = witness.release_of(acq)
        if rel is None:
            continue
        if not program.scope_covers(_narrowest(rel, acq), rel.tid, acq.tid):
            continue
        if vmo.has_edge(rel.eid, acq.eid):
            order_after(rel.eid, rel.tid, acq.eid, acq.tid)
    for rel in program.releases():
        if rel.loc is not None and rel.loc.startswith("p"):
            pmo.add_node(rel.eid)
            for w1 in persists:
                if w1.tid == rel.tid and po.has_edge(w1.eid, rel.eid):
                    pmo.add_edge(w1.eid, rel.eid)
    if not nx.is_directed_acyclic_graph(pmo):
        raise LitmusError("pmo has a cycle; witness is inconsistent")
    return nx.transitive_closure_dag(pmo)


def nx_ideals(dag):
    nodes = list(dag.nodes)
    ancestors = {n: nx.ancestors(dag, n) for n in nodes}
    found = set()
    for mask in itertools.product([False, True], repeat=len(nodes)):
        subset = {n for n, take in zip(nodes, mask) if take}
        if all(ancestors[n] <= subset for n in subset):
            found.add(frozenset(subset))
    return found


def nx_executed(witness):
    executed = {e.eid for e in witness.program.events()}
    while True:
        nxt = set()
        for thread in witness.program.threads:
            for event in thread.events:
                if event.kind is EventKind.PACQ:
                    source = witness.reads_from.get(event.eid)
                    if source is None or source not in executed:
                        break
                nxt.add(event.eid)
        if nxt == executed:
            return executed
        executed = nxt


def nx_value_choices(subset, pmo, events):
    by_loc = {}
    for eid in subset:
        by_loc.setdefault(events[eid].loc, []).append(eid)
    options = [
        [
            (loc, events[e].value)
            for e in sorted(eids)
            if not any(o != e and pmo.has_edge(e, o) for o in eids)
        ]
        for loc, eids in sorted(by_loc.items())
    ]
    return {tuple(sorted(combo)) for combo in itertools.product(*options)}


def _restricted(witness):
    pmo = nx_build_pmo(witness)
    executed = nx_executed(witness)
    events = {e.eid: e for e in witness.program.events()}
    return pmo.subgraph([n for n in pmo.nodes if n in executed]).copy(), events


def nx_allowed_crash_images(witness, completed_dfences=()):
    restricted, events = _restricted(witness)
    po = nx.transitive_closure_dag(nx_build_po(witness.program))
    mandatory = {
        p.eid
        for d in witness.program.events()
        if d.kind is EventKind.DFENCE and d.eid in set(completed_dfences)
        for p in witness.program.events()
        if p.is_persist and p.tid == d.tid and po.has_edge(p.eid, d.eid)
    } & nx_executed(witness)
    images = set()
    for subset in nx_ideals(restricted):
        if mandatory <= subset:
            images |= nx_value_choices(subset, restricted, events)
    return [dict(image) for image in sorted(images)]


def nx_allowed_final_images(witness):
    restricted, events = _restricted(witness)
    images = nx_value_choices(frozenset(restricted.nodes), restricted, events)
    return [dict(image) for image in sorted(images)]


# ----------------------------------------------------------------------
# Order against networkx
# ----------------------------------------------------------------------
def closed_edges(order):
    return {(a, b) for b in order.nodes for a in order.ancestors(b)}


@given(small_dags(max_nodes=9))
def test_order_closure_matches_transitive_closure_dag(dag):
    order = Order.from_edges(dag.nodes, dag.edges)
    assert set(order.nodes) == set(dag.nodes)
    assert closed_edges(order) == set(nx.transitive_closure_dag(dag).edges)
    for node in order.nodes:
        assert order.descendants(node) == nx.descendants(dag, node)
    position = {node: i for i, node in enumerate(order.topo)}
    assert sorted(position) == sorted(dag.nodes)
    assert all(position[a] < position[b] for a, b in dag.edges)


@given(small_digraphs())
def test_order_cycle_detection_matches_networkx(graph):
    try:
        Order.from_edges(graph.nodes, graph.edges, "cyclic")
    except LitmusError as err:
        assert str(err) == "cyclic"
        assert not nx.is_directed_acyclic_graph(graph)
    else:
        assert nx.is_directed_acyclic_graph(graph)


@given(small_dags(max_nodes=8))
def test_downward_closed_subsets_match_brute_force(dag):
    order = Order.from_edges(dag.nodes, dag.edges)
    assert downward_closed_subsets(order) == nx_ideals(dag)


# ----------------------------------------------------------------------
# pmo and crash images against the networkx reference
# ----------------------------------------------------------------------
def _outcome(fn, *args):
    try:
        return fn(*args)
    except LitmusError as err:
        return ("LitmusError", str(err))


@given(random_litmus())
@settings(max_examples=60, deadline=None)
def test_oracle_matches_networkx_reference(program):
    dfences = [e.eid for e in program.events() if e.kind is EventKind.DFENCE]
    for reads_from in all_reads_from(program):
        witness = ExecutionWitness(program, reads_from)
        expected_pmo = _outcome(nx_build_pmo, witness)
        got_pmo = _outcome(build_pmo, witness)
        if isinstance(expected_pmo, tuple):
            assert got_pmo == expected_pmo
            assert _outcome(CrashSpace, witness) == expected_pmo
            continue
        assert set(got_pmo.nodes) == set(expected_pmo.nodes)
        assert closed_edges(got_pmo) == set(expected_pmo.edges)
        space = CrashSpace(witness)
        for k in range(len(dfences) + 1):
            expected = nx_allowed_crash_images(witness, dfences[:k])
            assert allowed_crash_images(witness, dfences[:k]) == expected
            assert allowed_crash_images(space, dfences[:k]) == expected
        expected = nx_allowed_final_images(witness)
        assert allowed_final_images(witness) == expected
        assert allowed_final_images(space) == expected


@pytest.mark.parametrize("completed", [(), (1,), (1, 4)])
def test_dfence_prefixes_on_a_fixed_program(completed):
    prog = LitmusProgram()
    prog.thread().w("pA", 1).dfence().w("pB", 1).w("pA", 2).dfence()
    witness = ExecutionWitness(prog)
    assert prog.threads[0].events[1].eid == 1
    assert allowed_crash_images(witness, completed) == nx_allowed_crash_images(
        witness, completed
    )
