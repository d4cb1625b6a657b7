"""Warp runtime state and the kernel-facing warp context.

:class:`WarpCtx` is what kernel generator functions receive: lane ids,
global thread ids, and constructors for every warp-level operation.
:class:`Warp` is the SM-side execution record wrapping the generator.
"""

from __future__ import annotations

import enum
from typing import Any, Generator, Optional, Sequence

import numpy as np

from repro.common.config import Scope
from repro.gpu.ops import (
    AtomicAdd,
    BlockBarrier,
    Compute,
    DFence,
    Ld,
    OFence,
    Op,
    PAcq,
    PRel,
    St,
    ThreadFence,
    _as_array,
    _as_mask,
)


class WarpState(enum.Enum):
    READY = "ready"
    BLOCKED = "blocked"
    AT_BARRIER = "at_barrier"
    DONE = "done"


class WarpCtx:
    """Kernel-visible view of one warp.

    Kernels are written at warp granularity: every lane executes the same
    operation on its own data, predicated by an active-lane ``mask`` —
    the SIMT model.  Example::

        def kernel(w: WarpCtx) -> KernelGen:
            values = yield w.ld(inp.base + 4 * w.tid)
            yield w.st(out.base + 4 * w.tid, values * 2, mask=w.tid < n)
            yield w.ofence()
    """

    def __init__(
        self,
        block_id: int,
        warp_in_block: int,
        warp_size: int,
        block_size: int,
        grid_blocks: int,
    ) -> None:
        self.block_id = block_id
        self.warp_in_block = warp_in_block
        self.warp_size = warp_size
        self.block_size = block_size
        self.grid_blocks = grid_blocks
        self.lane = np.arange(warp_size, dtype=np.int64)
        #: Global thread id of each lane.
        self.tid = block_id * block_size + warp_in_block * warp_size + self.lane

    @property
    def nthreads(self) -> int:
        return self.grid_blocks * self.block_size

    @property
    def warps_per_block(self) -> int:
        return self.block_size // self.warp_size

    @property
    def is_block_leader(self) -> bool:
        """True for the first warp of the block (lane 0 = thread leader)."""
        return self.warp_in_block == 0

    # ------------------------------------------------------------------
    # operation constructors
    # ------------------------------------------------------------------
    def ld(
        self, addrs: Sequence[int] | np.ndarray | int, mask: Optional[Sequence[bool]] = None
    ) -> Ld:
        return Ld(_as_array(addrs, self.warp_size), _as_mask(mask, self.warp_size))

    def st(
        self,
        addrs: Sequence[int] | np.ndarray | int,
        values: Sequence[int] | np.ndarray | int,
        mask: Optional[Sequence[bool]] = None,
    ) -> St:
        return St(
            _as_array(addrs, self.warp_size),
            _as_array(values, self.warp_size),
            _as_mask(mask, self.warp_size),
        )

    def atomic_add(
        self,
        addrs: Sequence[int] | np.ndarray | int,
        values: Sequence[int] | np.ndarray | int,
        mask: Optional[Sequence[bool]] = None,
    ) -> AtomicAdd:
        return AtomicAdd(
            _as_array(addrs, self.warp_size),
            _as_array(values, self.warp_size),
            _as_mask(mask, self.warp_size),
        )

    def compute(self, cycles: int = 4) -> Compute:
        return Compute(cycles)

    def ofence(self) -> OFence:
        return OFence()

    def dfence(self) -> DFence:
        return DFence()

    def pacq(self, addr: int, scope: Scope = Scope.BLOCK) -> PAcq:
        return PAcq(int(addr), scope)

    def prel(self, addr: int, value: int, scope: Scope = Scope.BLOCK) -> PRel:
        return PRel(int(addr), int(value), scope)

    def threadfence(self, scope: Scope = Scope.DEVICE) -> ThreadFence:
        return ThreadFence(scope)

    def sync(self) -> BlockBarrier:
        return BlockBarrier()


#: Type of a kernel body: a generator yielding ops, receiving results.
KernelGen = Generator[Op, Any, None]


class Warp:
    """SM-side execution record of one warp."""

    __slots__ = (
        "slot",
        "ctx",
        "gen",
        "state",
        "ready_time",
        "send_value",
        "retry_op",
        "block_key",
    )

    def __init__(self, slot: int, ctx: WarpCtx, gen: KernelGen, block_key: int) -> None:
        self.slot = slot
        self.ctx = ctx
        self.gen = gen
        self.state = WarpState.READY
        self.ready_time = 0.0
        #: Value to send into the generator on next resume.
        self.send_value: Any = None
        #: An op that must be re-processed instead of resuming the
        #: generator (stores stalled by the persistency model).
        self.retry_op: Optional[Op] = None
        self.block_key = block_key

    def __repr__(self) -> str:
        return (
            f"Warp(slot={self.slot}, block={self.ctx.block_id}, "
            f"w{self.ctx.warp_in_block}, {self.state.value})"
        )
