"""Serve a YCSB-style stream, crash it mid-flight, recover under load.

The serving subsystem end-to-end: a seeded zipfian RMW-heavy request
stream batches into group commits against the gpKVS table, each write
persisting through the adaptive path (small transactions buffered in
the L1 persist buffer, large ones written through to NVM).  The demo
prints the SLO stats per persistency model, then power-fails the SBRP
run mid-stream and shows recovery rolling the in-flight transactions
back/forward to a consistent table.

Run:  python examples/serve_demo.py
"""

from repro import GPUSystem, ModelName, small_system
from repro.apps import build_app
from repro.serve.runner import run_serve_scenario

PARAMS = dict(n_requests=96, n_keys=96, capacity=256, batch_requests=48)


def main() -> None:
    for model in (ModelName.GPM, ModelName.EPOCH, ModelName.SBRP):
        result = run_serve_scenario(
            "serve_kvs", small_system(model), PARAMS
        )
        s = result.stats
        print(
            f"{result.label:10s} {s['serve.throughput_rps']:>12.0f} req/s  "
            f"p99 {s['serve.latency_p99']:>7.0f} cy  "
            f"paths pb/direct {s['serve.path_pb']:.0f}/"
            f"{s['serve.path_direct']:.0f}  "
            f"worst-case recovery {s['serve.recovery_cycles']:.0f} cy"
        )

    # Crash the stream mid-flight and recover on a rebooted machine.
    system = GPUSystem(small_system(ModelName.SBRP))
    app = build_app("serve_kvs", **PARAMS)
    app.setup(system)
    app.run(system)
    system.sync()
    image = system.crash(at=system.now * 0.6)
    rebooted = GPUSystem.reboot(system, image)
    system.close()
    app2 = build_app("serve_kvs", **PARAMS)
    app2.reopen(rebooted)
    recovery = app2.recover(rebooted)
    rebooted.sync()
    # complete=False: the crash landed between group commits, so the
    # table must be *consistent* (no torn rows, no impossible versions)
    # but not necessarily caught up to the final planned version.
    app2.check(rebooted, complete=False)
    rebooted.close()
    print(
        f"crash at 60%: recovered in {recovery.cycles:.0f} cycles; "
        "table consistent"
    )
    print("serve_demo OK")


if __name__ == "__main__":
    main()
