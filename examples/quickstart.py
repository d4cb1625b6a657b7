"""Quickstart: write a PM-aware GPU kernel and survive a crash.

Builds a small system under SBRP, runs a kernel that logs-then-updates a
PM array with oFence ordering, crashes the machine mid-run, reboots, and
shows that the durable image is consistent at every instant.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import GPUSystem, ModelName, small_system


def main() -> None:
    system = GPUSystem(small_system(ModelName.SBRP))

    # A persistent array and its undo log, plus a volatile input batch.
    data = system.pm_create("quickstart.data", 64 * 1024)
    log = system.pm_create("quickstart.log", 64 * 1024)
    batch = system.malloc(64 * 1024)
    n = 1024
    system.host_write_words(batch, np.arange(n) * 5 + 1)

    def kernel(w, data, log, batch, n):
        active = w.tid < n
        new = yield w.ld(batch.base + 4 * w.tid, mask=active)
        old = yield w.ld(data.base + 4 * w.tid, mask=active)
        # Undo-log the old value, fence, then update: the update can
        # never become durable before its log entry.
        yield w.st(log.base + 4 * w.tid, old + 1, mask=active)
        yield w.ofence()
        yield w.st(data.base + 4 * w.tid, new, mask=active)
        yield w.ofence()
        yield w.st(log.base + 4 * w.tid, 0, mask=active)  # commit

    result = system.launch(kernel, grid_blocks=8, args=(data, log, batch, n))
    print(f"kernel retired after {result.cycles:.0f} cycles")
    system.sync()
    print(f"all persists durable at t={system.now:.0f}")

    # Crash mid-execution and inspect the durable image.
    image = system.crash(at=result.end * 0.5)
    print(f"crash at t={image.time:.0f}: {len(image.pm)} durable PM words")

    rebooted = GPUSystem.reboot(system, image)
    system.close()  # the crashed machine is done; free it now
    data2 = rebooted.pm_open("quickstart.data")
    log2 = rebooted.pm_open("quickstart.log")
    values = rebooted.read_words(data2, n)
    log_vals = rebooted.read_words(log2, n)

    # Consistency: every updated word has a committed (cleared) or
    # restorable (logged) state - never a torn one.
    updated = values == np.arange(n) * 5 + 1
    print(f"after reboot: {int(updated.sum())}/{n} updates durable")
    pending = log_vals != 0
    print(f"{int(pending.sum())} updates were in flight (restorable from log)")
    rebooted.close()
    print("quickstart OK")


if __name__ == "__main__":
    main()
