"""Recovery oracles: classify every post-crash outcome **by type**.

Two oracle families cross-check each injected run:

* the **application oracle** boots a fresh machine from the crash image,
  runs the app's recovery kernel, and checks the app's own consistency
  invariants (:meth:`repro.apps.base.App.oracle_check`) — the paper's
  *recoverability* criterion (Section 2.2: after any crash, recovery
  must restore a consistent state);
* the **formal oracle** replays a litmus program on the (possibly
  faulted) timing simulator and checks every observed durable image
  against the axiomatic model's reachable crash states
  (:func:`repro.formal.bridge.validate_against_model`) — the paper's
  *strict persistency* ordering criterion.

Classification never inspects exception text: each outcome is decided
by exception type alone, so a reworded message can never silently change
a campaign verdict.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.common.config import ModelName, SystemConfig
from repro.common.errors import (
    FaultInjectionError,
    LivelockError,
    OracleViolation,
    PersistencyError,
    ReproError,
    SimulationError,
)
from repro.system import CrashImage, GPUSystem

if TYPE_CHECKING:
    from repro.apps.base import App

# ----------------------------------------------------------------------
# outcome classifications
# ----------------------------------------------------------------------
#: Recovery succeeded and the app's invariants hold.
CONSISTENT = "consistent"
#: Recovery ran but the app oracle rejected the resulting state.
APP_VIOLATION = "app_violation"
#: The simulator produced a durable image the axiomatic model forbids.
UNREACHABLE_STATE = "unreachable_state"
#: The recovery machinery itself raised (recovery kernel crashed).
RECOVERY_RAISED = "recovery_raised"
#: The injected run wedged: livelock, deadlock, or cycle-budget blowout.
HUNG = "hung"
#: The injection escalated to a typed FaultInjectionError.
FAULT_RAISED = "fault_raised"
#: A persistency-model invariant tripped during the injected run.
MODEL_ERROR = "model_error"
#: The worker process running the job died (crash isolation caught it).
JOB_FAILED = "job_failed"
#: The injected run finished; crash points decide the outcome.
RUN_COMPLETED = "completed"

CLASSIFICATIONS = (
    CONSISTENT,
    APP_VIOLATION,
    UNREACHABLE_STATE,
    RECOVERY_RAISED,
    HUNG,
    FAULT_RAISED,
    MODEL_ERROR,
    JOB_FAILED,
)

#: Classifications that count as *inconsistent* for campaign verdicts.
INCONSISTENT_CLASSES = frozenset(
    {APP_VIOLATION, UNREACHABLE_STATE, RECOVERY_RAISED}
)


def describe(exc: BaseException) -> str:
    """Stable one-line description: type name + message."""
    return f"{type(exc).__name__}: {exc}"


def classify_run_exception(exc: ReproError) -> str:
    """Classify an exception raised by the *injected run* itself.

    Order matters: :class:`LivelockError` subclasses
    :class:`SimulationError`, :class:`TornPersistError` subclasses
    :class:`FaultInjectionError`.
    """
    if isinstance(exc, LivelockError):
        return HUNG
    if isinstance(exc, FaultInjectionError):
        return FAULT_RAISED
    if isinstance(exc, PersistencyError):
        return MODEL_ERROR
    if isinstance(exc, SimulationError):
        return HUNG
    return MODEL_ERROR


# ----------------------------------------------------------------------
# application oracle
# ----------------------------------------------------------------------
def recover_and_classify(
    factory: Callable[[], "App"],
    config: SystemConfig,
    image: CrashImage,
) -> Tuple[str, Optional[str]]:
    """Boot a clean machine from *image*, recover with a ``factory()``
    app, check invariants.  Scenario runners pass their app's
    :meth:`~repro.apps.base.App.fresh`, so an app whose construction
    plans a workload (``serve_kvs``) plans it once per scenario, not
    once per crash image.

    Returns ``(classification, error)``:

    * any :class:`ReproError` while rebooting / recovering / draining
      classifies as :data:`RECOVERY_RAISED` — the recovery path must
      *itself* be crash-safe;
    * an :class:`OracleViolation` from the app's invariant checker
      classifies as :data:`APP_VIOLATION`;
    * otherwise the state is :data:`CONSISTENT`.
    """
    app = factory()
    try:
        rebooted = GPUSystem(config, pm_image=image)
    except ReproError as exc:
        return RECOVERY_RAISED, describe(exc)
    with rebooted:
        try:
            app.reopen(rebooted)
            app.recover(rebooted)
            rebooted.sync()
        except ReproError as exc:
            return RECOVERY_RAISED, describe(exc)
        try:
            app.oracle_check(rebooted, complete=False)
        except OracleViolation as exc:
            return APP_VIOLATION, describe(exc)
    return CONSISTENT, None


# ----------------------------------------------------------------------
# formal oracle
# ----------------------------------------------------------------------
def run_litmus_oracle(
    test_name: str,
    model: ModelName,
    plan: Optional[Any] = None,
) -> Dict[str, Any]:
    """Cross-validate simulator crash images against the formal model.

    Runs *test_name* on the timing simulator (optionally under the fault
    *plan*) and reports every observed durable image the axiomatic model
    says is unreachable, plus any statically detectable scoped-
    persistency misuse in the program itself.
    """
    from repro.faults.injector import build_injector
    from repro.formal.bug_detector import find_scope_bugs
    from repro.formal.bridge import validate_against_model
    from repro.formal.litmus import LITMUS_TESTS

    test = LITMUS_TESTS[test_name]
    unreachable = validate_against_model(
        test, model, faults=build_injector(plan)
    )
    scope_bugs = find_scope_bugs(test.build().validate())
    classification = UNREACHABLE_STATE if unreachable else CONSISTENT
    return {
        "test": test_name,
        "model": model.value,
        "plan": plan.to_json() if plan is not None else None,
        "classification": classification,
        "unreachable_images": [
            dict(sorted(img.items())) for img in unreachable
        ],
        "scope_bugs": sorted(str(bug) for bug in scope_bugs),
    }
