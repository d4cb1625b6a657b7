"""Enumerating the crash images a persistency model permits.

A crash image corresponds to a *downward-closed* subset of the pmo DAG
(if W2 is durable, everything pmo-before it is durable), with per-
location values chosen among the pmo-maximal durable writes to that
location.  dFences additionally force durability: every persist
pmo-before a *completed* dFence must be in every image (completion of a
dFence guarantees the issuing thread's prior persists are durable).

For litmus-sized programs the enumeration is exhaustive; apps use the
simulator's persist log instead (:mod:`repro.crash`).
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from repro.formal.events import Event, EventKind
from repro.formal.relations import ExecutionWitness, Order, bits, build_pmo, mask_of

#: A crash image: location -> durable value (missing = initial zero).
CrashImageT = Dict[str, int]

#: An image as sorted (location, value) pairs.
ImageKey = Tuple[Tuple[str, int], ...]


def order_ideals(order: Order) -> List[int]:
    """Every downward-closed subset (order ideal) of *order*, as masks.

    Walks the topological order once, extending each ideal of the
    prefix by the next node wherever all of that node's predecessors
    are already in it, so the work is proportional to the output.
    """
    ideals = [0]
    for node in order.topo:
        below, bit = order.below[node], 1 << node
        ideals += [mask | bit for mask in ideals if below & mask == below]
    return ideals


def downward_closed_subsets(order: Order) -> Set[FrozenSet[int]]:
    """All downward-closed subsets (order ideals) of *order*."""
    return {frozenset(bits(mask)) for mask in order_ideals(order)}


class CrashSpace:
    """Everything the crash-image queries of one witness share.

    The pmo restricted to the persists that execute, each location's
    persists as a mask, each dFence's same-thread po-prefix of persists,
    and (on first use) the order ideals.  Build one per witness and pass
    it wherever a witness is accepted to reuse that work across queries.
    """

    def __init__(self, witness: ExecutionWitness) -> None:
        program = witness.program
        pmo = build_pmo(witness)
        self.events: Dict[int, Event] = {e.eid: e for e in program.events()}
        # Acquires are blocking spins: a thread whose acquire observed
        # no release never executes its later events, so those persists
        # cannot appear in any image of this witness.
        self.executed = _executed_mask(witness)
        self.pmo = pmo.restrict(self.executed)
        locs: Dict[str, int] = {}
        for eid in self.pmo.topo:
            loc = self.events[eid].loc
            assert loc is not None
            locs[loc] = locs.get(loc, 0) | (1 << eid)
        self.locs: List[Tuple[str, int]] = sorted(locs.items())
        self.dfence_prefix: Dict[int, int] = {}
        for thread in program.threads:
            prefix = 0
            for event in thread.events:
                if event.kind is EventKind.DFENCE:
                    self.dfence_prefix[event.eid] = prefix
                elif event.is_persist:
                    prefix |= 1 << event.eid
        self._ideals: Optional[List[int]] = None

    @property
    def ideals(self) -> List[int]:
        if self._ideals is None:
            self._ideals = order_ideals(self.pmo)
        return self._ideals


def _space(witness: Union[ExecutionWitness, CrashSpace]) -> CrashSpace:
    return witness if isinstance(witness, CrashSpace) else CrashSpace(witness)


def allowed_crash_images(
    witness: Union[ExecutionWitness, CrashSpace],
    completed_dfences: Optional[Iterable[int]] = None,
) -> List[CrashImageT]:
    """Every PM image the model allows after a crash of this execution.

    *completed_dfences* lists eids of dFence events known to have
    completed before the crash; their preceding persists become
    mandatory in every image.  *witness* may be the witness's
    :class:`CrashSpace`.
    """
    space = _space(witness)
    mandatory = _dfence_mandatory(space, completed_dfences or ())
    images: Set[ImageKey] = set()
    for subset in space.ideals:
        if mandatory & subset == mandatory:
            images.update(_value_choices(subset, space))
    return [dict(image) for image in sorted(images)]


def allowed_final_images(
    witness: Union[ExecutionWitness, CrashSpace],
) -> List[CrashImageT]:
    """Every PM image the model allows once the machine has fully
    drained: the durable set is *all* executed persists (including
    PM-resident release flags), and only the per-location value choice
    among pmo-maximal writes remains free.

    The conformance checker compares the simulator's post-``sync()``
    image against this set: an execution whose final image is missing a
    persist (an acknowledged-but-never-written drain, say) is flagged
    even though every *crash* image it produced was an allowed subset.
    """
    space = _space(witness)
    images = set(_value_choices(space.executed, space))
    return [dict(image) for image in sorted(images)]


def _executed_mask(witness: ExecutionWitness) -> int:
    """Event ids that actually execute under this witness, as a mask.

    Each thread truncates at its first acquire that observed no release
    — and an acquire can only observe a release that itself executed, so
    truncation cascades to a fixpoint.
    """
    executed = mask_of(e.eid for e in witness.program.events())
    while True:
        next_executed = 0
        for thread in witness.program.threads:
            for event in thread.events:
                if event.kind is EventKind.PACQ:
                    source = witness.reads_from.get(event.eid)
                    if source is None or not executed >> source & 1:
                        break
                next_executed |= 1 << event.eid
        if next_executed == executed:
            return executed
        executed = next_executed


def _dfence_mandatory(space: CrashSpace, completed_dfences: Iterable[int]) -> int:
    """Persists that every image must contain: those program-ordered
    before a completed dFence of the same thread (and executed)."""
    mandatory = 0
    for eid in completed_dfences:
        mandatory |= space.dfence_prefix.get(eid, 0)
    return mandatory & space.executed


def _value_choices(subset: int, space: CrashSpace) -> Iterable[ImageKey]:
    """Per-location value combinations for one durable set.

    Writes to the same location that are pmo-unordered may land in any
    order; the surviving value is any pmo-maximal durable write.
    """
    above, events = space.pmo.above, space.events
    per_loc_options: List[List[Tuple[str, int]]] = []
    for loc, loc_mask in space.locs:
        durable = subset & loc_mask
        if durable:
            per_loc_options.append(
                [
                    (loc, events[eid].value)
                    for eid in bits(durable)
                    if not above[eid] & durable
                ]
            )
    return itertools.product(*per_loc_options)
