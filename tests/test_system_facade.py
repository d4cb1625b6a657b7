"""GPUSystem facade: allocation, host IO, crash/reboot lifecycle."""

import gc

import numpy as np
import pytest

from repro import CrashImage, GPUSystem, ModelName, Scope, small_system
from repro.common.errors import MemoryError_, SimulationError


@pytest.fixture
def system():
    return GPUSystem(small_system(ModelName.SBRP))


class TestAllocation:
    def test_pm_create_and_open(self, system):
        region = system.pm_create("r", 1024)
        assert system.pm_exists("r")
        assert system.pm_open("r").base == region.base

    def test_malloc_is_volatile(self, system):
        from repro.memory.address_space import is_pm_addr

        region = system.malloc(1024)
        assert not is_pm_addr(region.base)


class TestHostIO:
    def test_host_write_words_roundtrip(self, system):
        region = system.pm_create("r", 1024)
        values = np.arange(10) * 7
        system.host_write_words(region, values)
        assert (system.read_words(region, 10) == values).all()

    def test_host_pm_writes_are_durable(self, system):
        region = system.pm_create("r", 1024)
        system.host_write_words(region, [42])
        assert system.durable_words(region, 1)[0] == 42

    def test_host_fill(self, system):
        region = system.pm_create("r", 256)
        system.host_fill(region, 9)
        assert (system.read_words(region) == 9).all()


class TestBulkReads:
    """read_words / durable_words check bounds once for the whole range
    and must agree word for word with the per-word paths."""

    @pytest.mark.parametrize("read", ["read_words", "durable_words"])
    def test_past_region_end_raises(self, system, read):
        region = system.pm_create("r", 256)
        with pytest.raises(MemoryError_):
            getattr(system, read)(region, 256 // 4 + 1)

    @pytest.mark.parametrize("read", ["read_words", "durable_words"])
    def test_zero_count_is_empty_int64(self, system, read):
        region = system.pm_create("r", 256)
        got = getattr(system, read)(region, 0)
        assert got.dtype == np.int64 and got.shape == (0,)

    @pytest.mark.parametrize("read", ["read_words", "durable_words"])
    def test_unwritten_words_read_zero(self, system, read):
        region = system.pm_create("r", 256)
        assert (getattr(system, read)(region) == 0).all()

    def test_match_per_word_reads_on_partly_written_region(self, system):
        region = system.pm_create("r", 2048)
        system.host_write_words(region, [5, 6, 7])

        def kernel(w, region):
            # Every other word of the second half (128 threads); no
            # sync, so some are visible but not yet durable.
            yield w.st(region.base + 1024 + 8 * w.tid, w.tid + 100)

        system.launch(kernel, 1, args=(region,))
        n = region.size // 4
        visible = [system.read_word(region.word(i)) for i in range(n)]
        assert system.read_words(region).tolist() == visible
        assert system.read_words(region, 7).tolist() == visible[:7]
        image = system.crash().pm
        durable = [image.get(region.word(i), 0) for i in range(n)]
        assert system.durable_words(region).tolist() == durable
        assert durable[:3] == [5, 6, 7] and visible[256] == 100
        assert durable != visible


class TestCrashReboot:
    def run_writer(self, system):
        region = system.pm_create("data", 4096)

        def kernel(w, region):
            yield w.st(region.base + 4 * w.tid, w.tid + 1)

        system.launch(kernel, 1, args=(region,))
        system.sync()
        return region

    def test_crash_now_and_reboot(self, system):
        region = self.run_writer(system)
        image = system.crash()
        assert isinstance(image, CrashImage)
        rebooted = GPUSystem.reboot(system, image)
        reopened = rebooted.pm_open("data")
        assert (rebooted.read_words(reopened, 32) == np.arange(32) + 1).all()

    def test_crash_in_the_future_rejected(self, system):
        self.run_writer(system)
        with pytest.raises(SimulationError):
            system.crash(at=system.now + 1)

    def test_crash_at_time_zero_only_has_host_data(self, system):
        region = system.pm_create("init", 256)
        system.host_write_words(region, [5])
        self.run_writer(system)
        image = system.crash(at=0.0)
        assert image.pm.get(region.base) == 5
        data = system.pm_open("data")
        assert data.base not in image.pm

    def test_rebooted_system_can_run_kernels(self, system):
        self.run_writer(system)
        rebooted = GPUSystem.reboot(system, system.crash())
        region = rebooted.pm_open("data")

        def doubler(w, region):
            vals = yield w.ld(region.base + 4 * w.tid)
            yield w.st(region.base + 4 * w.tid, vals * 2)

        rebooted.launch(doubler, 1, args=(region,))
        rebooted.sync()
        assert (rebooted.read_words(region, 32) == (np.arange(32) + 1) * 2).all()

    def test_volatile_data_does_not_survive(self, system):
        vol = system.malloc(256)
        system.host_write_words(vol, [123])
        rebooted = GPUSystem.reboot(system, system.crash())
        assert rebooted.read_word(vol.base) == 0


class TestBookkeeping:
    def test_kernel_results_accumulate(self, system):
        def kernel(w):
            yield w.compute(10)

        system.launch(kernel, 1)
        system.launch(kernel, 2)
        assert len(system.kernel_results) == 2
        assert system.total_cycles() > 0

    def test_stat_accessor(self, system):
        def kernel(w):
            yield w.compute(1)

        system.launch(kernel, 1)
        assert system.stat("kernel.launches") == 1
        assert system.stat("missing", -1) == -1

    def test_repr_mentions_label(self, system):
        assert "SBRP-far" in repr(system)


def system_warps_per_block():
    return small_system(ModelName.SBRP).gpu.warps_per_block


class TestClose:
    """``close()`` frees a machine by refcount; a closed one refuses use."""

    def finished_sbrp_machine(self):
        system = GPUSystem(small_system(ModelName.SBRP))
        region = system.pm_create("data", 4096)
        flag = system.malloc(128).base

        def kernel(w, region):
            yield w.st(region.base + 4 * w.tid, w.tid + 1)
            if w.warp_in_block == 0:
                yield w.prel(flag, 1, Scope.BLOCK)
            else:
                yield w.pacq(flag, Scope.BLOCK, until=1)
            yield w.ofence()

        system.launch(kernel, 2, args=(region,))
        system.sync()
        return system

    def test_closed_machine_leaves_no_cyclic_garbage(self):
        self.finished_sbrp_machine().close()  # warm every lazy import
        gc.collect()
        gc.disable()
        try:
            system = self.finished_sbrp_machine()
            system.close()
            del system
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_close_finishes_suspended_kernels(self):
        system = GPUSystem(small_system(ModelName.SBRP), max_cycles=2000)
        flag = system.malloc(128).base
        closed = []

        def kernel(w):
            try:
                yield w.pacq(flag, Scope.BLOCK, until=1)  # never released
            finally:
                closed.append(w.warp_in_block)

        with pytest.raises(SimulationError, match="cycle budget"):
            system.launch(kernel, 1)
        assert closed == []
        system.close()
        assert sorted(closed) == list(range(system_warps_per_block()))

    def test_context_manager_closes(self):
        with GPUSystem(small_system(ModelName.SBRP)) as system:
            system.malloc(128)
        with pytest.raises(SimulationError, match="closed"):
            system.malloc(128)

    def test_close_is_idempotent(self, system):
        system.close()
        system.close()
        assert repr(system) == "GPUSystem(closed)"

    @pytest.mark.parametrize(
        "use",
        [
            lambda s: s.launch(lambda w: iter(()), 1),
            lambda s: s.sync(),
            lambda s: s.crash(),
            lambda s: s.now,
            lambda s: s.malloc(128),
            lambda s: s.pm_create("r", 128),
            lambda s: s.read_word(0),
            lambda s: s.host_write(0, 1),
            lambda s: s.stat("kernel.launches"),
            lambda s: s.metrics_snapshot(),
            lambda s: s.total_cycles(),
            lambda s: s.config,
            lambda s: s.gpu,
            lambda s: GPUSystem.reboot(s, None),
        ],
        ids=[
            "launch", "sync", "crash", "now", "malloc", "pm_create",
            "read_word", "host_write", "stat", "metrics_snapshot",
            "total_cycles", "config", "gpu", "reboot",
        ],
    )
    def test_any_use_after_close_raises_simulation_error(self, use):
        system = self.finished_sbrp_machine()
        system.close()
        with pytest.raises(SimulationError, match="closed"):
            use(system)

    def test_closed_gpu_refuses_to_launch(self):
        system = self.finished_sbrp_machine()
        gpu = system.gpu
        system.close()
        with pytest.raises(SimulationError, match="closed"):
            gpu.launch(lambda w: iter(()), 1)
        with pytest.raises(SimulationError, match="closed"):
            gpu.sync()
