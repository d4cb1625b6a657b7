"""Reduction with native recovery: resume a crashed computation.

The paper's Figure 2/3 workload: partial sums persist to PM with block-
and device-scope release/acquire, so after a power failure the kernel
simply resumes from whatever persisted instead of restarting.  The demo
shows how much of the work survives crashes at different points.

Run:  python examples/reduction_recovery.py
"""

import numpy as np

from repro import GPUSystem, ModelName, small_system
from repro.apps import build_app

PARAMS = dict(blocks=4, per_thread=4)


def main() -> None:
    system = GPUSystem(small_system(ModelName.SBRP))
    app = build_app("reduction", **PARAMS)
    app.setup(system)
    result = app.run(system)
    system.sync()
    print(f"crash-free run: {result.cycles:.0f} cycles, "
          f"sum = {system.read_word(app.out.base)} (expected {app.expected()})")

    for fraction in (0.3, 0.6, 0.9):
        image = system.crash(at=system.now * fraction)
        with GPUSystem.reboot(system, image) as rebooted:
            app2 = build_app("reduction", **PARAMS)
            app2.reopen(rebooted)
            parr = rebooted.read_words(app2.parr, 32 * app2.n_warps)[::32]
            survived = int((parr != 0).sum())
            recovery = app2.recover(rebooted)
            rebooted.sync()
            app2.check(rebooted, complete=True)
            print(
                f"crash at {fraction:.0%}: {survived}/{app2.n_warps} warp "
                f"partials survived; resumed in {recovery.cycles:.0f} cycles; "
                f"final sum = {rebooted.read_word(app2.out.base)}"
            )
    system.close()
    print("reduction_recovery OK")


if __name__ == "__main__":
    main()
