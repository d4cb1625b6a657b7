"""Building po / vmo / pmo for an execution witness (Boxes 1 and 2).

The model is *axiomatic*: given a litmus program and a synchronization
witness (which release each acquire observed), each relation is built
as an :class:`Order` — a strict partial order over event ids, stored
transitively closed as one bitmask of predecessors and one of
successors per event (bit *i* stands for event id *i*):

* ``po`` — program order within each thread.
* ``vmo`` — the fragment of volatile memory order the witness fixes:
  po edges plus release→acquire edges for observed same-location pairs
  of sufficient scope (scoped release consistency).
* ``pmo`` — Box 2's two rules plus transitivity:

  - *intra-thread*: ``W po OF po W'  ⟹  W pmo W'`` (dFence counts as an
    ordering fence too);
  - *inter-thread*: ``W po pRel(X,S) vmo pAcq(X,S) po W'  ⟹  W pmo W'``
    when S covers both threads.

Litmus programs have a few dozen events at most, so an order query is a
shift and a mask, and closing a relation is one topological pass.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.common.errors import LitmusError
from repro.formal.events import Event, EventKind, LitmusProgram, ReadsFrom


def bits(mask: int) -> Iterator[int]:
    """The set bit positions of *mask*, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(eids: Iterable[int]) -> int:
    mask = 0
    for eid in eids:
        mask |= 1 << eid
    return mask


class Order:
    """A transitively closed strict partial order over event ids.

    ``below[e]`` masks every event ordered before *e*, ``above[e]``
    every event ordered after it.  Built from each node's *direct*
    predecessors; a cycle raises :class:`LitmusError` with
    *cycle_message*.
    """

    __slots__ = ("topo", "below", "above")

    def __init__(
        self, preds: Dict[int, int], cycle_message: str = "order has a cycle"
    ) -> None:
        succs = {node: 0 for node in preds}
        for node, mask in preds.items():
            for pred in bits(mask):
                succs[pred] |= 1 << node
        pending = dict(preds)
        ready = deque(node for node, mask in preds.items() if not mask)
        #: Nodes in a topological order (ties in insertion order).
        self.topo: List[int] = []
        self.below: Dict[int, int] = {}
        while ready:
            node = ready.popleft()
            self.topo.append(node)
            below = 0
            for pred in bits(preds[node]):
                below |= self.below[pred] | (1 << pred)
            self.below[node] = below
            for succ in bits(succs[node]):
                pending[succ] &= ~(1 << node)
                if not pending[succ]:
                    ready.append(succ)
        if len(self.topo) != len(preds):
            raise LitmusError(cycle_message)
        self.above: Dict[int, int] = {}
        for node in reversed(self.topo):
            above = 0
            for succ in bits(succs[node]):
                above |= self.above[succ] | (1 << succ)
            self.above[node] = above

    @classmethod
    def from_edges(
        cls,
        nodes: Iterable[int],
        edges: Iterable[Tuple[int, int]],
        cycle_message: str = "order has a cycle",
    ) -> "Order":
        preds = {node: 0 for node in nodes}
        for a, b in edges:
            preds.setdefault(a, 0)
            preds[b] = preds.get(b, 0) | (1 << a)
        return cls(preds, cycle_message)

    @property
    def nodes(self) -> List[int]:
        return list(self.topo)

    def has_edge(self, a: int, b: int) -> bool:
        """Whether *a* is ordered before *b*."""
        return bool(self.below.get(b, 0) >> a & 1)

    def ancestors(self, node: int) -> Set[int]:
        return set(bits(self.below[node]))

    def descendants(self, node: int) -> Set[int]:
        return set(bits(self.above[node]))

    def number_of_edges(self) -> int:
        return sum(mask.bit_count() for mask in self.below.values())

    def restrict(self, keep: int) -> "Order":
        """The suborder on the nodes in mask *keep*."""
        sub = Order.__new__(Order)
        sub.topo = [node for node in self.topo if keep >> node & 1]
        sub.below = {n: self.below[n] & keep for n in self.below if keep >> n & 1}
        sub.above = {n: self.above[n] & keep for n in self.above if keep >> n & 1}
        return sub


@dataclass
class ExecutionWitness:
    """One resolved execution: the program plus acquire pairings."""

    program: LitmusProgram
    reads_from: ReadsFrom = field(default_factory=dict)

    def release_of(self, acq: Event) -> Optional[Event]:
        rel_eid = self.reads_from.get(acq.eid)
        if rel_eid is None:
            return None
        for event in self.program.events():
            if event.eid == rel_eid:
                return event
        raise LitmusError(f"witness references unknown event {rel_eid}")


def _po_preds(program: LitmusProgram) -> Dict[int, int]:
    """Each event's direct program-order predecessor, as a mask."""
    preds: Dict[int, int] = {}
    for thread in program.threads:
        prev = 0
        for event in thread.events:
            preds[event.eid] = prev
            prev = 1 << event.eid
    return preds


def build_po(program: LitmusProgram) -> Order:
    """Program order: a chain per thread."""
    return Order(_po_preds(program))


def build_vmo(witness: ExecutionWitness) -> Order:
    """The witness-determined fragment of volatile memory order.

    vmo contains po (per-thread order is respected by the scoped model
    for same-thread operations) and one release→acquire edge for every
    observed pairing whose scope covers both threads.  The relation is
    transitively closed, as Box 1 requires.
    """
    program = witness.program
    preds = _po_preds(program)
    for acq in program.acquires():
        rel = witness.release_of(acq)
        if rel is None:
            continue
        if rel.loc != acq.loc:
            raise LitmusError(
                f"acquire {acq} cannot read release {rel}: different locations"
            )
        scope = _narrowest(rel, acq)
        if program.scope_covers(scope, rel.tid, acq.tid):
            preds[acq.eid] |= 1 << rel.eid
    return Order(preds, "infeasible witness: cyclic vmo")


def build_pmo(witness: ExecutionWitness) -> Order:
    """Persist memory order over the program's PM writes (Box 2)."""
    program = witness.program
    po = build_po(program)
    vmo = build_vmo(witness)
    events = program.events()
    persists = {
        thread.tid: mask_of(e.eid for e in thread.events if e.is_persist)
        for thread in program.threads
    }
    preds = {e.eid: 0 for e in events if e.is_persist}

    def order_after(w1s: int, w2s: int) -> None:
        for w2 in bits(w2s):
            preds[w2] |= w1s

    # Rule 1: intra-thread via ordering/durability fences.
    for fence in events:
        if fence.kind in (EventKind.OFENCE, EventKind.DFENCE):
            mine = persists[fence.tid]
            order_after(po.below[fence.eid] & mine, po.above[fence.eid] & mine)

    # Rule 2: inter-thread via scoped release/acquire in vmo.
    for acq in program.acquires():
        rel = witness.release_of(acq)
        if rel is None:
            continue
        scope = _narrowest(rel, acq)
        if not program.scope_covers(scope, rel.tid, acq.tid):
            continue
        if not vmo.has_edge(rel.eid, acq.eid):
            continue
        order_after(
            po.below[rel.eid] & persists[rel.tid],
            po.above[acq.eid] & persists[acq.tid],
        )

    # A PM-resident release variable is itself a persist ordered after
    # the persists preceding the release.
    for rel in program.releases():
        if rel.loc is not None and rel.loc.startswith("p"):
            preds[rel.eid] = po.below[rel.eid] & persists[rel.tid]

    return Order(preds, "pmo has a cycle; witness is inconsistent")


def durable_prefix_required(pmo: Order, eid: int) -> List[int]:
    """Every persist that must be durable whenever *eid* is durable."""
    return sorted(pmo.ancestors(eid))


def _narrowest(rel: Event, acq: Event):
    """The effective scope of a release/acquire pair is the narrowest of
    the two operations' scopes (Section 2)."""
    assert rel.scope is not None and acq.scope is not None
    order = {"block": 0, "device": 1, "system": 2}
    return rel.scope if order[rel.scope.value] <= order[acq.scope.value] else acq.scope
