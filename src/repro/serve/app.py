"""ServeKVS: the transactional key-value store behind the serving layer.

One :class:`ServeKVS` instance executes a planned request stream
(:mod:`repro.serve.workload`) against a PM-resident direct-mapped table,
one kernel launch per batch, one request per thread.  Every batch is a
group commit: the launch drains all buffered persists, so at any crash
instant only the in-flight batch's transactions can be partial.

Row layout (all PM): ``tbl_key[s]`` holds ``key + 1`` (0 = absent),
``tbl_val[s]`` the encoded value, ``pay[s * payload_large + i]`` the
payload words.  Key *k* maps to slot *k* (the workload generator keeps
keys below capacity).

Write transactions persist through one of two paths selected by
:func:`repro.serve.txn.select_path`:

* **PB / undo** — write a *logical* undo record of the pre-image
  (known host-side from the version history, so no row read), sealed
  with a checksum, ``ofence``, update in place, ``ofence``, clear the
  seal — everything rides the persist buffer until the group commit
  (the gpKVS Figure 4 protocol with logical logging and
  variable-length payloads);
* **direct / redo** — write a redo record of the *new* row flagged
  with a checksum, ``ofence``, ``dfence`` (the NVM write-through: the
  warp stalls until the record is durable, pulling its drain forward
  into the batch's execution), apply in place, ``ofence``, clear the
  flag (FIFO drain order makes the clear durable only after the row).

Both logs are indexed by the request's slot *within its batch*, so one
batch's records never collide; the ``drain=True`` launch boundary makes
the previous batch's cleared log durable before slots are reused.

Recovery scans both logs on the rebooted machine: a validly sealed undo
record rolls its row back, a validly flagged redo record rolls its row
forward, and both logs are discarded only after a ``dfence``.

``seeded_bug="early_commit"`` clears the undo seal *before* the
in-place update — premature log truncation, the teeth check for the
fault campaign's recovery oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

import numpy as np

from repro.apps.base import App, AppParams, RunOutcome
from repro.apps.common import SEAL
from repro.serve.txn import (
    DEFAULT_THRESHOLD_WORDS,
    PATH_DIRECT,
    POLICIES,
    POLICY_ADAPTIVE,
    select_path,
)
from repro.serve.workload import Batch, Plan, WorkloadSpec, plan_workload
from repro.system import GPUSystem

#: Value encoding: version *j* of key *k*.  The stride pair (100003, 31)
#: is coprime, so ``(value - base) / 31`` uniquely recovers the version
#: during checking; payload word *i* of that version is ``value + 1 + i``.
VALUE_BASE = 100003
VALUE_STEP = 31


def encode_value(key: "np.ndarray | int", version: "np.ndarray | int"):
    return (key + 1) * VALUE_BASE + VALUE_STEP * version


@dataclass(frozen=True)
class ServeKVSParams(AppParams):
    """Workload spec + transaction-layer knobs, flat for ScenarioJob."""

    seed: int = 7
    n_requests: int = 256
    mix: str = "rmw_heavy"
    popularity: str = "zipfian"
    theta: float = 0.99
    n_keys: int = 256
    capacity: int = 640
    arrival: str = "poisson"
    rate_per_kcycle: float = 4.0
    payload_small: int = 2
    payload_large: int = 8
    large_every: int = 4
    batch_requests: int = 128
    #: Persist-path policy: adaptive | forced_pb | forced_direct.
    policy: str = POLICY_ADAPTIVE
    #: Adaptive cut-over in row words (key + value + payload).
    threshold_words: int = DEFAULT_THRESHOLD_WORDS
    #: ALU cost of request parsing/hashing, cycles.
    compute_cycles: int = 12
    #: "" = correct protocol; "early_commit" truncates the undo log
    #: before the in-place update (fault-campaign teeth).
    seeded_bug: str = ""

    def workload(self) -> WorkloadSpec:
        return WorkloadSpec(
            seed=self.seed,
            n_requests=self.n_requests,
            mix=self.mix,
            popularity=self.popularity,
            theta=self.theta,
            n_keys=self.n_keys,
            capacity=self.capacity,
            arrival=self.arrival,
            rate_per_kcycle=self.rate_per_kcycle,
            payload_small=self.payload_small,
            payload_large=self.payload_large,
            large_every=self.large_every,
            batch_requests=self.batch_requests,
        )


class ServeKVS(App):
    """Traffic-driven persistent KVS with a dual-path transaction layer."""

    name = "serve_kvs"
    scoped_pmo = "intra-thread"
    recovery_style = "logging"

    def __init__(self, **overrides: Any) -> None:
        self.params = ServeKVSParams(**overrides)
        if self.params.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.params.policy!r}; have {POLICIES}"
            )
        if self.params.seeded_bug not in ("", "early_commit"):
            raise ValueError(
                f"unknown seeded_bug {self.params.seeded_bug!r}; "
                "have '', 'early_commit'"
            )
        #: The plan is a pure function of the params, so every instance
        #: sees the identical stream (the :meth:`fresh` twins the crash
        #: harness recovers with share this one).
        self.plan: Plan = plan_workload(self.params.workload())
        #: Per batch: the launch list (suffix, lane arrays).
        self._stages = [self._batch_stages(b) for b in self.plan.batches]

    def fresh(self) -> "ServeKVS":
        """A twin that shares this instance's plan and lane arrays
        instead of re-planning: both are pure functions of the params
        and nothing writes to them after construction."""
        twin = object.__new__(type(self))
        twin.params = self.params
        twin.plan = self.plan
        twin._stages = self._stages
        return twin

    # ------------------------------------------------------------------
    # memory layout
    # ------------------------------------------------------------------
    def _regions(self) -> Dict[str, int]:
        p = self.params
        cap, pay, b = p.capacity, p.payload_large, p.batch_requests
        return {
            "serve.tbl_key": 4 * cap,
            "serve.tbl_val": 4 * cap,
            "serve.pay": 4 * cap * pay,
            "serve.ulog_slot": 4 * b,
            "serve.ulog_key": 4 * b,
            "serve.ulog_val": 4 * b,
            "serve.ulog_pay": 4 * b * pay,
            "serve.ulog_seal": 4 * b,
            "serve.rlog_slot": 4 * b,
            "serve.rlog_key": 4 * b,
            "serve.rlog_val": 4 * b,
            "serve.rlog_pay": 4 * b * pay,
            "serve.rlog_flag": 4 * b,
        }

    def setup(self, system: GPUSystem) -> None:
        p = self.params
        for region, size in self._regions().items():
            attr = region.split(".", 1)[1]
            setattr(self, attr, system.pm_create(region, size))
        slots = np.arange(p.n_keys)
        keys = np.zeros(p.capacity, dtype=np.int64)
        vals = np.zeros(p.capacity, dtype=np.int64)
        keys[: p.n_keys] = slots + 1
        vals[: p.n_keys] = encode_value(slots, 0)
        system.host_write_words(self.tbl_key, keys)
        system.host_write_words(self.tbl_val, vals)
        payload = np.zeros(p.capacity * p.payload_large, dtype=np.int64)
        for s in range(p.n_keys):
            plen = p.workload().payload_words(s)
            base = s * p.payload_large
            payload[base : base + plen] = vals[s] + 1 + np.arange(plen)
        system.host_write_words(self.pay, payload)

    def reopen(self, system: GPUSystem) -> None:
        for region in self._regions():
            attr = region.split(".", 1)[1]
            setattr(self, attr, system.pm_open(region))

    # ------------------------------------------------------------------
    # per-batch host-side request arrays
    # ------------------------------------------------------------------
    def _batch_stages(self, batch: Batch, policy: "str | None" = None):
        """A batch's launches: one kernel covering all its lanes.

        The batch's size sort (:func:`~repro.serve.workload
        ._order_in_batch`) packs reads, buffered writes and
        write-through writes into contiguous lane ranges, so once a
        batch spans several threadblocks each SM sees a homogeneous
        persist path — a write-through warp's dfence drains its own
        SM's records, not another path's buffered bulk (the persist
        buffer and its FIFO are per-SM).

        *policy* overrides the configured persist-path policy for this
        batch only (degraded-mode path shedding).
        """
        return [("", self._lane_arrays(list(batch.requests), batch, policy))]

    def _lane_arrays(
        self, requests, batch: Batch, policy: "str | None" = None
    ) -> Dict[str, np.ndarray]:
        p = self.params
        path_policy = policy if policy is not None else p.policy
        n = len(requests)
        arr = {
            "n": n,
            "key": np.zeros(n, dtype=np.int64),
            "ver": np.zeros(n, dtype=np.int64),
            "plen": np.zeros(n, dtype=np.int64),
            "read": np.zeros(n, dtype=bool),
            "rmw": np.zeros(n, dtype=bool),
            "write": np.zeros(n, dtype=bool),
            "direct": np.zeros(n, dtype=bool),
        }
        arr["old_key"] = np.zeros(n, dtype=np.int64)
        arr["old_val"] = np.zeros(n, dtype=np.int64)
        # Write combining: the batch's applying writer commits on top of
        # the key's version *before the batch*, not its own minus one —
        # intermediate versions are subsumed by the group commit.
        first_ver: Dict[int, int] = {}
        for req in batch.requests:
            if req.is_write:
                first_ver[req.key] = min(
                    first_ver.get(req.key, req.version), req.version
                )
        for i, req in enumerate(requests):
            arr["key"][i] = req.key
            arr["ver"][i] = req.version
            arr["plen"][i] = req.payload
            arr["read"][i] = req.op == "read"
            arr["rmw"][i] = req.op == "rmw"
            arr["write"][i] = req.is_applying_write
            if req.is_applying_write:
                arr["direct"][i] = (
                    select_path(path_policy, req.payload, p.threshold_words)
                    == PATH_DIRECT
                )
                # Version-aware logical undo: the layer tracks committed
                # versions, so the pre-image is known without a row
                # read.  A never-written row's pre-image is absent.
                pre_ver = first_ver[req.key] - 1
                if not (req.key >= p.n_keys and pre_ver == 0):
                    arr["old_key"][i] = req.key + 1
                    arr["old_val"][i] = encode_value(req.key, pre_ver)
        return arr

    def path_counts(self) -> Dict[str, int]:
        """How many write transactions each persist path serves."""
        arrays = [arr for stages in self._stages for _, arr in stages]
        direct = sum(int(a["direct"].sum()) for a in arrays)
        writes = sum(int(a["write"].sum()) for a in arrays)
        return {"pb": writes - direct, "direct": direct}

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def _serve_kernel(self, w, arr: Dict[str, np.ndarray]):
        p = self.params
        pw = p.payload_large
        n = arr["n"]
        idx = np.minimum(w.tid, n - 1)
        active = w.tid < n
        key = arr["key"][idx]
        slot = key  # direct-mapped
        newv = encode_value(key, arr["ver"][idx])
        plen = arr["plen"][idx]
        read = active & arr["read"][idx]
        write = active & arr["write"][idx]
        rmw = active & arr["rmw"][idx]
        direct = write & arr["direct"][idx]
        pb = write & ~arr["direct"][idx]
        yield w.compute(p.compute_cycles)

        # Reads (and the read half of RMW): key, value, payload words.
        probe = read | rmw
        if bool(probe.any()):
            yield w.ld(self.tbl_key.base + 4 * slot, mask=probe)
            yield w.ld(self.tbl_val.base + 4 * slot, mask=probe)
            for i in range(pw):
                m = probe & (i < plen)
                if bool(m.any()):
                    yield w.ld(self.pay.base + 4 * (slot * pw + i), mask=m)

        pb_any = bool(pb.any())
        direct_any = bool(direct.any())
        write_any = bool(write.any())

        # PB path: sealed logical-undo record of the pre-image (known
        # from the version history — no row read on the log path).
        if pb_any:
            old_k = arr["old_key"][idx]
            old_v = arr["old_val"][idx]
            acc = slot ^ old_k ^ old_v ^ SEAL
            yield w.st(self.ulog_slot.base + 4 * w.tid, slot, mask=pb)
            yield w.st(self.ulog_key.base + 4 * w.tid, old_k, mask=pb)
            yield w.st(self.ulog_val.base + 4 * w.tid, old_v, mask=pb)
            for i in range(pw):
                m = pb & (i < plen)
                if bool(m.any()):
                    # An insert's pre-image payload is zero.
                    old_p = np.where(old_k != 0, old_v + 1 + i, 0)
                    yield w.st(
                        self.ulog_pay.base + 4 * (w.tid * pw + i),
                        old_p,
                        mask=m,
                    )
                    acc = acc + np.where(m, (old_p + 1) * (i + 2), 0)
            # Payload words enter the checksum position-weighted, not
            # XORed: the record lines flush concurrently (no ordering
            # inside the record), and a run of consecutive payload
            # values XORs to zero — the same as no payload at all — so
            # a crash that persists the seal before any payload word
            # would validate a hollow record.  A weighted sum shifts
            # under every missing or torn subset.  ``2*acc + 1`` keeps
            # a live seal distinct from the cleared state.
            yield w.st(self.ulog_seal.base + 4 * w.tid, 2 * acc + 1, mask=pb)

        # Direct path: flagged redo record of the new row (no old reads).
        if direct_any:
            facc = slot ^ (key + 1) ^ newv ^ SEAL
            yield w.st(self.rlog_slot.base + 4 * w.tid, slot, mask=direct)
            yield w.st(self.rlog_key.base + 4 * w.tid, key + 1, mask=direct)
            yield w.st(self.rlog_val.base + 4 * w.tid, newv, mask=direct)
            for i in range(pw):
                m = direct & (i < plen)
                if bool(m.any()):
                    yield w.st(
                        self.rlog_pay.base + 4 * (w.tid * pw + i),
                        newv + 1 + i,
                        mask=m,
                    )
                    facc = facc + np.where(m, (newv + 2 + i) * (i + 2), 0)
            yield w.st(
                self.rlog_flag.base + 4 * w.tid, 2 * facc + 1, mask=direct
            )

        # Records before row updates.
        if write_any:
            yield w.ofence()
        if p.seeded_bug == "early_commit" and pb_any:
            # BUG: the undo log is truncated before the update it
            # covers — a crash inside the update window finds no valid
            # record and the torn row survives recovery.
            yield w.st(self.ulog_seal.base + 4 * w.tid, 0, mask=pb)
        if direct_any:
            # The write-through commit: the redo record is durable from
            # here, and the drained persist buffer sheds its pressure.
            yield w.dfence()

        # Apply in place (both paths share the row stores).
        if write_any:
            yield w.st(self.tbl_key.base + 4 * slot, key + 1, mask=write)
            yield w.st(self.tbl_val.base + 4 * slot, newv, mask=write)
            for i in range(pw):
                m = write & (i < plen)
                if bool(m.any()):
                    yield w.st(
                        self.pay.base + 4 * (slot * pw + i),
                        newv + 1 + i,
                        mask=m,
                    )
            yield w.ofence()
            # Commit: discard the records (same-line-across-fence).
            if pb_any and p.seeded_bug != "early_commit":
                yield w.st(self.ulog_seal.base + 4 * w.tid, 0, mask=pb)
            if direct_any:
                # The persist buffer drains in FIFO order, so this
                # clear can only become durable after the in-place row
                # it covers — no second fence needed; rolling a cleared
                # record forward is idempotent anyway.
                yield w.st(self.rlog_flag.base + 4 * w.tid, 0, mask=direct)

    def _recover_kernel(self, w, arr_unused=None):
        p = self.params
        pw = p.payload_large
        b = p.batch_requests
        active = w.tid < b
        u_slot = yield w.ld(self.ulog_slot.base + 4 * w.tid, mask=active)
        u_key = yield w.ld(self.ulog_key.base + 4 * w.tid, mask=active)
        u_val = yield w.ld(self.ulog_val.base + 4 * w.tid, mask=active)
        u_seal = yield w.ld(self.ulog_seal.base + 4 * w.tid, mask=active)
        u_slot = np.clip(u_slot, 0, p.capacity - 1)
        u_plen = np.where(
            u_slot % p.large_every == 0, p.payload_large, p.payload_small
        )
        acc = u_slot ^ u_key ^ u_val ^ SEAL
        u_pay = []
        for i in range(pw):
            m = active & (i < u_plen)
            word = yield w.ld(
                self.ulog_pay.base + 4 * (w.tid * pw + i), mask=m
            )
            u_pay.append(word)
            acc = acc + np.where(m, (word + 1) * (i + 2), 0)
        u_valid = active & (u_seal == 2 * acc + 1)

        r_slot = yield w.ld(self.rlog_slot.base + 4 * w.tid, mask=active)
        r_key = yield w.ld(self.rlog_key.base + 4 * w.tid, mask=active)
        r_val = yield w.ld(self.rlog_val.base + 4 * w.tid, mask=active)
        r_flag = yield w.ld(self.rlog_flag.base + 4 * w.tid, mask=active)
        r_slot = np.clip(r_slot, 0, p.capacity - 1)
        r_plen = np.where(
            r_slot % p.large_every == 0, p.payload_large, p.payload_small
        )
        facc = r_slot ^ r_key ^ r_val ^ SEAL
        r_pay = []
        for i in range(pw):
            m = active & (i < r_plen)
            word = yield w.ld(
                self.rlog_pay.base + 4 * (w.tid * pw + i), mask=m
            )
            r_pay.append(word)
            facc = facc + np.where(m, (word + 1) * (i + 2), 0)
        r_valid = active & (r_flag == 2 * facc + 1)

        # Roll back in-flight undo transactions, roll forward flagged
        # redo transactions.
        yield w.st(self.tbl_key.base + 4 * u_slot, u_key, mask=u_valid)
        yield w.st(self.tbl_val.base + 4 * u_slot, u_val, mask=u_valid)
        for i in range(pw):
            m = u_valid & (i < u_plen)
            if bool(m.any()):
                yield w.st(
                    self.pay.base + 4 * (u_slot * pw + i), u_pay[i], mask=m
                )
        yield w.st(self.tbl_key.base + 4 * r_slot, r_key, mask=r_valid)
        yield w.st(self.tbl_val.base + 4 * r_slot, r_val, mask=r_valid)
        for i in range(pw):
            m = r_valid & (i < r_plen)
            if bool(m.any()):
                yield w.st(
                    self.pay.base + 4 * (r_slot * pw + i), r_pay[i], mask=m
                )
        yield w.dfence()
        # Discard both logs only after the restoration is durable.
        yield w.st(self.ulog_seal.base + 4 * w.tid, 0, mask=active)
        yield w.st(self.rlog_flag.base + 4 * w.tid, 0, mask=active)

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def _grid(self, system: GPUSystem, threads: int) -> int:
        per_block = system.config.gpu.threads_per_block
        return max(1, -(-threads // per_block))

    def _split_lanes(
        self, arr: Dict[str, np.ndarray], split: int
    ) -> List[Dict[str, np.ndarray]]:
        """Slice one stage's lane arrays into up to *split* chunks."""
        n = arr["n"]
        parts = max(1, min(int(split), n))
        if parts == 1:
            return [arr]
        bounds = np.linspace(0, n, parts + 1, dtype=int)
        chunks: List[Dict[str, np.ndarray]] = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi == lo:
                continue
            chunk: Dict[str, Any] = {"n": int(hi - lo)}
            for name, value in arr.items():
                if name != "n":
                    chunk[name] = value[lo:hi]
            chunks.append(chunk)
        return chunks

    def serve_batch(
        self,
        system: GPUSystem,
        index: int,
        policy: "str | None" = None,
        split: int = 1,
    ) -> List[Any]:
        """Launch batch *index*'s kernels; return their results.

        The resilience layer's two degraded-mode levers hang here:
        *policy* sheds this batch's writes to one persist path, and
        *split* throttles the batch into smaller launches, each drained
        so later chunks can reuse the per-lane log slots (the same
        drain-boundary argument that makes cross-batch slot reuse
        safe).  Defaults reproduce the planned single-launch group
        commit exactly.
        """
        if policy is not None and policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; have {POLICIES}")
        batch = self.plan.batches[index]
        stages = (
            self._stages[index]
            if policy is None
            else self._batch_stages(batch, policy)
        )
        results = []
        for pos, (suffix, arr) in enumerate(stages):
            chunks = self._split_lanes(arr, split)
            for c, chunk in enumerate(chunks):
                tag = f"{suffix}.c{c}" if len(chunks) > 1 else suffix
                results.append(
                    system.launch(
                        self._serve_kernel,
                        self._grid(system, chunk["n"]),
                        kwargs={"arr": chunk},
                        name=f"serve.batch{batch.index}{tag}",
                        # Group commit: the batch's last stage drains;
                        # throttled chunks each drain (slot reuse).
                        drain=len(chunks) > 1 or pos == len(stages) - 1,
                    )
                )
        return results

    def run(self, system: GPUSystem) -> RunOutcome:
        results = []
        for index in range(len(self.plan.batches)):
            results.extend(self.serve_batch(system, index))
        return RunOutcome(results)

    def recover(self, system: GPUSystem) -> RunOutcome:
        result = system.launch(
            self._recover_kernel,
            self._grid(system, self.params.batch_requests),
            name="serve.recover",
        )
        return RunOutcome([result])

    # ------------------------------------------------------------------
    # checking
    # ------------------------------------------------------------------
    def check(self, system: GPUSystem, complete: bool = True) -> None:
        p = self.params
        pw = p.payload_large
        cap = p.capacity
        keys = system.read_words(self.tbl_key, cap)
        vals = system.read_words(self.tbl_val, cap)
        pays = system.read_words(self.pay, cap * pw).reshape(cap, pw)
        slots = np.arange(cap)
        final = np.zeros(cap, dtype=np.int64)
        for k, v in self.plan.final_versions.items():
            final[k] = v
        populated = slots < p.n_keys
        inserted = np.zeros(cap, dtype=bool)
        for k in self.plan.insert_keys:
            inserted[k] = True

        present = keys != 0
        self.require(
            bool(np.all(keys[present] == slots[present] + 1)),
            "serve_kvs: table holds a foreign key",
        )
        self.require(
            bool(np.all(populated <= present)),
            f"serve_kvs: {int((populated & ~present).sum())} populated "
            "keys vanished",
        )
        self.require(
            bool(np.all(present <= (populated | inserted))),
            "serve_kvs: phantom rows outside the key space",
        )
        # Value = some committed version of its key, no newer than the
        # last planned write.
        delta = vals - encode_value(slots, 0)
        version = delta // VALUE_STEP
        value_ok = (
            (delta % VALUE_STEP == 0) & (delta >= 0) & (version <= final)
        )
        bad = present & ~value_ok
        self.require(
            not bad.any(),
            f"serve_kvs: {int(bad.sum())} rows hold an impossible value, "
            f"first at slot {int(np.argmax(bad))}",
        )
        # Payload atomicity: every payload word of a present row belongs
        # to exactly the row's value version; absent rows and tail words
        # are zero.
        plen = np.where(
            slots % p.large_every == 0, p.payload_large, p.payload_small
        )
        col = np.arange(pw)[None, :]
        in_row = col < plen[:, None]
        expected = np.where(
            present[:, None] & in_row, vals[:, None] + 1 + col, 0
        )
        torn = pays != expected
        self.require(
            not torn.any(),
            f"serve_kvs: torn payload at slot "
            f"{int(np.argmax(torn.any(axis=1)))}",
        )
        absent = ~present
        self.require(
            bool(np.all(vals[absent] == 0)),
            "serve_kvs: absent rows hold values",
        )
        if complete:
            missing = inserted & ~present
            self.require(
                not missing.any(),
                f"serve_kvs: {int(missing.sum())} inserts missing",
            )
            stale = present & (version != final)
            self.require(
                not stale.any(),
                f"serve_kvs: {int(stale.sum())} rows behind their final "
                f"version, first at slot {int(np.argmax(stale))}",
            )


def build_serve_app(**overrides: Any) -> ServeKVS:
    return ServeKVS(**overrides)
