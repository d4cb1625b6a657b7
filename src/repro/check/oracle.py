"""The differential oracle: operational observations vs axiomatic sets.

Three checks, in increasing order of witness-specificity:

1. **Unconstrained soundness** — every crash image the simulator ever
   produced must be allowed by *some* synchronization witness with *no*
   dFence-completion assumption (a crash can land before any fence
   completes).  An observed-but-forbidden image means the hardware
   model violates Box 2.

2. **dFence obligation** — at the instant a dFence completed, the
   durable image must be allowed under the *observed* witness with that
   fence (and every earlier-completing one) marked completed.  Checking
   at the completion instant is exact: durable sets only grow, so a
   violation visible later was already visible then.

3. **Final completeness** — after ``sync()`` the image must be one of
   the fully-drained images of the observed witness: every executed
   persist durable, only the per-location choice among pmo-maximal
   writes free.  This is the check that catches "acknowledged but never
   written" drains, which check 1 cannot see (the empty image is always
   an allowed *subset*).

Coverage (allowed-but-never-observed images) is reported but is not a
failure: a timing simulator legitimately explores one schedule per
configuration.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.common.config import ModelName
from repro.common.errors import LitmusError
from repro.formal.crash_states import (
    CrashSpace,
    allowed_crash_images,
    allowed_final_images,
)
from repro.formal.events import LitmusProgram, ReadsFrom, all_reads_from
from repro.formal.relations import ExecutionWitness

from repro.check.enumerator import Variant, observe
from repro.check.mutants import build_mutant

#: Canonical image form: sorted (loc, value) pairs, zeros dropped — the
#: initial value of every location is zero, so "absent" and "zero" are
#: the same durable state.
NormImage = Tuple[Tuple[str, int], ...]


def normalize(image: Dict[str, int]) -> NormImage:
    return tuple(sorted((k, v) for k, v in image.items() if v != 0))


class WitnessMemo:
    """Per-program memo of every witness-level oracle query.

    Each witness's :class:`CrashSpace` (pmo, executed set, order ideals)
    is built once, and each normalized image set once per witness and
    completed-dFence prefix.  Entries are keyed by the sorted reads-from
    pairs; an infeasible witness (cyclic vmo/pmo) is remembered as its
    :class:`LitmusError`, raised again on every later lookup.
    """

    def __init__(self, program: LitmusProgram) -> None:
        self.program = program
        self._memo: Dict[Tuple[Any, ...], Any] = {}

    def _lookup(self, key: Tuple[Any, ...], build: Callable[[], Any]) -> Any:
        value = self._memo.get(key)
        if value is None:
            try:
                value = build()
            except LitmusError as err:
                value = err
            self._memo[key] = value
        if isinstance(value, LitmusError):
            raise value.with_traceback(None)
        return value

    def space(self, reads_from: ReadsFrom) -> CrashSpace:
        return self._lookup(
            ("space", *sorted(reads_from.items())),
            lambda: CrashSpace(ExecutionWitness(self.program, dict(reads_from))),
        )

    def crash_images(
        self, reads_from: ReadsFrom, completed: Sequence[int] = ()
    ) -> Set[NormImage]:
        """Allowed crash images with the *completed* dFences honored."""
        return self._lookup(
            ("crash", tuple(completed), *sorted(reads_from.items())),
            lambda: {
                normalize(image)
                for image in allowed_crash_images(
                    self.space(reads_from), completed
                )
            },
        )

    def final_images(self, reads_from: ReadsFrom) -> Set[NormImage]:
        """Allowed fully drained images."""
        return self._lookup(
            ("final", *sorted(reads_from.items())),
            lambda: {
                normalize(image)
                for image in allowed_final_images(self.space(reads_from))
            },
        )


def allowed_unconstrained(
    program: LitmusProgram, memo: Optional[WitnessMemo] = None
) -> Set[NormImage]:
    """Union over every feasible witness of the allowed crash images."""
    if memo is None:
        memo = WitnessMemo(program)
    allowed: Set[NormImage] = set()
    for reads_from in all_reads_from(program):
        try:
            allowed.update(memo.crash_images(reads_from))
        except LitmusError:
            continue  # infeasible witness (cyclic vmo/pmo)
    return allowed


def _witness_resolved(
    program: LitmusProgram, reads_from: Dict[int, Optional[int]]
) -> bool:
    """Whether the run's witness is known: False when any acquire's
    observed value mapped to no known release (foreign writes to flag
    locations — the fuzzer never generates these, but directed programs
    might)."""
    return len(reads_from) == len(program.acquires()) and all(
        source is not None for source in reads_from.values()
    )


def check_observation(
    program: LitmusProgram,
    observation: Any,
    allowed: Set[NormImage],
    variant_name: str,
    memo: Optional[WitnessMemo] = None,
) -> List[Dict[str, Any]]:
    """All three oracle checks against one simulator run."""
    violations: List[Dict[str, Any]] = []
    for time, image in observation.images:
        norm = normalize(image)
        if norm not in allowed:
            violations.append(
                {
                    "type": "soundness",
                    "variant": variant_name,
                    "time": time,
                    "image": dict(norm),
                }
            )
    reads_from = observation.reads_from
    if not _witness_resolved(program, reads_from):
        return violations
    if memo is None:
        memo = WitnessMemo(program)
    try:
        completed: List[int] = []
        for eid, (time, image) in sorted(
            observation.dfence_images.items(), key=lambda kv: (kv[1][0], kv[0])
        ):
            completed.append(eid)
            if normalize(image) not in memo.crash_images(reads_from, completed):
                violations.append(
                    {
                        "type": "dfence",
                        "variant": variant_name,
                        "time": time,
                        "image": dict(normalize(image)),
                    }
                )
        if normalize(observation.final_image) not in memo.final_images(
            reads_from
        ):
            violations.append(
                {
                    "type": "final",
                    "variant": variant_name,
                    "image": dict(normalize(observation.final_image)),
                }
            )
    except LitmusError as err:
        # The run synchronized in a way the axioms call infeasible.
        violations.append(
            {
                "type": "witness_error",
                "variant": variant_name,
                "error": str(err),
            }
        )
    return violations


def check_program(
    program: LitmusProgram,
    model: ModelName,
    variants: List[Variant],
    crash_points: int = 48,
    mutant: Optional[str] = None,
) -> Dict[str, Any]:
    """Run *program* under every variant and apply the oracle.

    Returns a plain-JSON report; ``violations`` is the total count
    across variants (0 = the model refined its spec on this program).
    A simulation that dies (deadlock, livelock, drain stall) counts as
    a violation too — mutants are allowed to wedge the machine, and a
    wedge on an unmodified model is exactly what the harness is for.
    """
    model_factory = build_mutant(mutant) if mutant is not None else None
    memo = WitnessMemo(program)
    allowed = allowed_unconstrained(program, memo)
    observed: Set[NormImage] = set()
    variant_reports: List[Dict[str, Any]] = []
    sim_cycles = 0.0
    for variant in variants:
        try:
            obs = observe(
                program,
                model,
                variant,
                crash_points=crash_points,
                model_factory=model_factory,
            )
        except Exception as err:  # noqa: BLE001 - any wedge is a finding
            variant_reports.append(
                {
                    "variant": variant.name,
                    "violations": [
                        {
                            "type": "simulation_error",
                            "variant": variant.name,
                            "error": f"{type(err).__name__}: {err}",
                        }
                    ],
                }
            )
            continue
        sim_cycles += obs.end
        observed.update(normalize(image) for image in obs.image_dicts())
        variant_reports.append(
            {
                "variant": variant.name,
                "end": obs.end,
                "violations": check_observation(
                    program, obs, allowed, variant.name, memo
                ),
            }
        )
    never_observed = sorted(allowed - observed)
    return {
        "program": program.name,
        "ops": program.op_count(),
        "model": model.value,
        "mutant": mutant,
        "violations": sum(len(v["violations"]) for v in variant_reports),
        "variants": variant_reports,
        "coverage": {
            "allowed": len(allowed),
            "observed_allowed": len(observed & allowed),
            "never_observed": [dict(n) for n in never_observed[:8]],
        },
        "sim_cycles": sim_cycles,
    }


def failing_variants(report: Dict[str, Any]) -> List[str]:
    """Names of variants with at least one violation, in sweep order."""
    return [
        v["variant"] for v in report["variants"] if v["violations"]
    ]
