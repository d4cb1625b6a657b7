"""Hypothesis strategies shared by the formal-model property tests."""

import networkx as nx
from hypothesis import strategies as st

from repro.common.config import Scope
from repro.formal import LitmusProgram

SCOPES = [Scope.BLOCK, Scope.DEVICE]
#: Writes are drawn twice as often as any other op.
OPS = ["w", "w", "ofence", "dfence", "prel", "pacq"]


@st.composite
def small_dags(draw, max_nodes=6):
    """A networkx DAG on nodes 0..n-1 (edges only go upward)."""
    n = draw(st.integers(1, max_nodes))
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                g.add_edge(i, j)
    return g


@st.composite
def small_digraphs(draw, max_nodes=7):
    """A networkx digraph on nodes 0..n-1: any edges, self-loops and
    cycles included."""
    n = draw(st.integers(1, max_nodes))
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    g.add_edges_from(draw(st.lists(pairs, max_size=2 * n)))
    return g


@st.composite
def random_litmus(draw):
    """Small random programs: 2 threads of PM writes, oFences, dFences
    and release/acquire pairs on a volatile (``f``) or PM-resident
    (``pF``) flag."""
    prog = LitmusProgram("random")
    locs = ["pA", "pB", "pC"]
    flags = ["f", "pF"]
    for tid in range(2):
        thread = prog.thread(block=draw(st.integers(0, 1)))
        for _ in range(draw(st.integers(1, 5))):
            op = draw(st.sampled_from(OPS))
            if op == "w":
                thread.w(draw(st.sampled_from(locs)), draw(st.integers(1, 3)))
            elif op == "ofence":
                thread.ofence()
            elif op == "dfence":
                thread.dfence()
            elif op == "prel":
                thread.prel(
                    draw(st.sampled_from(flags)), 1, draw(st.sampled_from(SCOPES))
                )
            else:
                thread.pacq(
                    draw(st.sampled_from(flags)), draw(st.sampled_from(SCOPES))
                )
    return prog


#: Multi-warp ops: writes dominate, so warps keep persists buffered.
MULTI_WARP_OPS = ["w", "w", "w", "ofence", "ofence", "dfence", "prel", "pacq"]


@st.composite
def multi_warp_litmus(draw, max_threads=4):
    """Programs for the timing simulator with several warps sharing an
    SM: 2-4 threads (one warp each) over at most two blocks, doing PM
    writes, oFences, dFences and releases.  Each release writes a fresh
    flag and an acquire only waits on a flag an earlier thread
    released, so every spin terminates."""
    prog = LitmusProgram("multi-warp")
    released = []
    for _ in range(draw(st.integers(2, max_threads))):
        thread = prog.thread(block=draw(st.integers(0, 1)))
        for _ in range(draw(st.integers(1, 8))):
            op = draw(st.sampled_from(MULTI_WARP_OPS))
            if op == "w":
                thread.w(
                    draw(st.sampled_from(["pA", "pB", "pC", "pD"])),
                    draw(st.integers(1, 9)),
                )
            elif op == "ofence":
                thread.ofence()
            elif op == "dfence":
                thread.dfence()
            elif op == "prel":
                flag = f"{draw(st.sampled_from('pv'))}f{len(released)}"
                thread.prel(flag, 1, draw(st.sampled_from(SCOPES)))
                released.append(flag)
            elif released:
                thread.pacq(draw(st.sampled_from(released)), draw(st.sampled_from(SCOPES)))
    return prog
