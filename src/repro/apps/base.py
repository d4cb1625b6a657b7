"""Common protocol for the evaluation applications.

An :class:`App` owns a workload description and knows how to:

* ``setup(system)`` — allocate and initialize its PM/volatile data,
* ``run(system)`` — launch the crash-free kernels (the timed part),
* ``recover(system)`` — launch the recovery kernel against a rebooted
  system whose PM holds a crash image,
* ``check(system)`` — raise :class:`RecoveryError` unless the PM state
  satisfies the app's consistency invariants,
* ``expected()`` — the CPU reference answer for full-completion checks,
* ``fresh()`` — a new instance with the same params, for a rebooted
  machine (the crash harness and the fault oracle recover with one).

``scoped_pmo`` and ``recovery_style`` mirror Table 2 so tests can assert
the reproduction covers the same design space as the paper.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, fields
from typing import Dict, List, Optional

from repro.common.errors import OracleViolation, RecoveryError
from repro.gpu.device import KernelResult
from repro.system import GPUSystem


@dataclass(frozen=True)
class AppParams:
    """Base class for per-app workload parameters."""


@dataclass
class RunOutcome:
    """What a crash-free run produced."""

    kernels: List[KernelResult]

    @property
    def cycles(self) -> float:
        return sum(k.cycles for k in self.kernels)


class App(abc.ABC):
    """One PM-aware GPU application."""

    #: Registry name ("gpkvs", "srad", ...).
    name: str = ""
    #: Table 2's "Scoped PMO" column.
    scoped_pmo: str = ""
    #: Table 2's "Recovery" column: "logging" or "native".
    recovery_style: str = ""
    #: The instance's workload parameters.
    params: AppParams

    @abc.abstractmethod
    def setup(self, system: GPUSystem) -> None:
        """Allocate PM regions and initialize inputs."""

    @abc.abstractmethod
    def run(self, system: GPUSystem) -> RunOutcome:
        """Crash-free execution (the part every figure times)."""

    @abc.abstractmethod
    def recover(self, system: GPUSystem) -> RunOutcome:
        """Post-crash recovery on a rebooted system.

        For logging apps this is the recovery kernel; native apps re-run
        their kernel, which skips already-persisted work.
        """

    @abc.abstractmethod
    def check(self, system: GPUSystem, complete: bool = True) -> None:
        """Verify consistency invariants; with ``complete=True``, also
        verify the final answer matches the CPU reference."""

    def fresh(self) -> "App":
        """A new, not yet set-up instance with the same params."""
        return type(self)(
            **{f.name: getattr(self.params, f.name) for f in fields(self.params)}
        )

    def reopen(self, system: GPUSystem) -> None:
        """Re-open PM regions by name on a rebooted system.

        Default: re-run setup-style open for every named region recorded
        during :meth:`setup` (subclasses store their allocations).
        """
        raise NotImplementedError

    def oracle_check(self, system: GPUSystem, complete: bool = False) -> None:
        """Recovery-oracle entry point for the fault campaign.

        Same invariants as :meth:`check`, but violations surface as
        :class:`~repro.common.errors.OracleViolation` so campaign
        classification can separate "the app's invariants are broken"
        from "the recovery kernel itself crashed" by exception type.
        """
        try:
            self.check(system, complete=complete)
        except OracleViolation:
            raise
        except RecoveryError as exc:
            raise OracleViolation(str(exc)) from exc

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @staticmethod
    def require(condition: bool, message: str) -> None:
        if not condition:
            raise RecoveryError(message)
