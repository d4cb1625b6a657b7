"""Soak scenarios end to end: crash→recover→crash chains under the
pinned schedules, soak-mode job plumbing, and the CLI's determinism."""

import json
from dataclasses import replace

import pytest

from repro.chaos import soak
from repro.chaos.runner import run_soak_scenario
from repro.common.config import ModelName, ResilienceConfig, small_system
from repro.common.errors import ConfigError
from repro.exec.jobs import MODE_SOAK, ScenarioJob
from repro.faults.oracles import CONSISTENT


def soak_payload(**overrides):
    payload = {
        "timeline": soak.brownout_burst().to_json(),
        "crash_every_batches": 2,
        "crash_fraction": 0.6,
    }
    payload.update(overrides)
    return payload


def resilient_config(model=ModelName.SBRP):
    return replace(
        small_system(model), resilience=ResilienceConfig(enabled=True)
    )


@pytest.fixture(scope="module")
def resilient_result():
    """The pinned brownout+burst chain, run once for the module."""
    return run_soak_scenario(
        "serve_kvs",
        resilient_config(),
        dict(soak.SOAK_PARAMS),
        soak_payload(),
    )


class TestResilientChain:
    def test_survives_without_failure(self, resilient_result):
        assert resilient_result.detail["failure"] is None

    def test_oracle_consistent_at_every_reboot(self, resilient_result):
        reboots = resilient_result.detail["reboots"]
        assert len(reboots) >= 2
        assert all(r["oracle"] == CONSISTENT for r in reboots)

    def test_no_committed_transaction_lost(self, resilient_result):
        assert resilient_result.detail["lost_committed"] == []
        assert resilient_result.stats["soak.lost_committed"] == 0.0

    def test_degraded_mode_entered_and_exited(self, resilient_result):
        stats = resilient_result.stats
        assert stats["soak.degraded_entries"] > 0
        assert stats["soak.degraded_exits"] > 0

    def test_availability_and_latency_stats_present(self, resilient_result):
        stats = resilient_result.stats
        assert 0.0 < stats["soak.availability"] < 1.0
        assert stats["soak.latency_p99"] >= stats["soak.latency_p50"] > 0.0
        assert stats["soak.goodput_rps"] > 0.0
        assert stats["soak.crashes"] == len(
            resilient_result.detail["reboots"]
        )

    def test_burst_retries_were_absorbed(self, resilient_result):
        assert resilient_result.stats["soak.retries_absorbed"] > 0
        assert resilient_result.detail["injected"].get(
            "nvm_retries_absorbed", 0
        ) > 0


class TestUnprotectedChain:
    def test_same_schedule_fails_without_resilience(self):
        result = run_soak_scenario(
            "serve_kvs",
            small_system(ModelName.SBRP),
            dict(soak.SOAK_PARAMS),
            soak_payload(),
        )
        failure = result.detail["failure"]
        assert failure is not None
        assert failure["stage"] == "serve"
        assert failure["classification"] == "fault_raised"


class TestSoakPayloadValidation:
    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown soak payload keys"):
            run_soak_scenario(
                "serve_kvs",
                resilient_config(),
                dict(soak.SOAK_PARAMS),
                soak_payload(crash_flavour="spicy"),
            )

    def test_timeline_is_required(self):
        with pytest.raises(ValueError, match="timeline"):
            run_soak_scenario(
                "serve_kvs",
                resilient_config(),
                dict(soak.SOAK_PARAMS),
                {"crash_every_batches": 2},
            )


class TestSoakJobs:
    def job(self):
        return soak.smoke_cells()[0].job()

    def test_round_trips_through_json(self):
        job = self.job()
        clone = ScenarioJob.from_json(json.loads(json.dumps(job.to_json())))
        assert clone == job
        assert clone.spec_hash == job.spec_hash

    def test_label_names_mode_and_windows(self):
        assert "[soak]" in self.job().label
        assert "[brownout+burst]" in self.job().label

    def test_soak_payload_only_valid_in_soak_mode(self):
        job = self.job()
        with pytest.raises(ConfigError):
            replace(job, mode="scenario")
        with pytest.raises(ConfigError):
            replace(job, soak=None)


class TestSoakCLI:
    @pytest.mark.parametrize("workers", ["0", "x"])
    def test_bad_workers_is_a_usage_error(self, workers, monkeypatch, capsys):
        def refuse(*_, **__):
            raise AssertionError("a job ran before the input was checked")

        monkeypatch.setattr(soak.Executor, "submit", refuse)
        with pytest.raises(SystemExit) as exc:
            soak.main(["--smoke", "--quiet", "--workers", workers])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--workers" in err

    def test_smoke_is_byte_identical_across_workers(self, tmp_path):
        out1 = tmp_path / "w1.json"
        out2 = tmp_path / "w2.json"
        base = ["--smoke", "--quiet"]
        assert soak.main(base + ["--workers", "1", "--out", str(out1)]) == 0
        assert soak.main(base + ["--workers", "2", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["summary"]["unexpected"] == []
        assert report["cells"]["sbrp.resilient"]["matched"]
        unprotected = report["cells"]["sbrp.unprotected"]
        assert unprotected["failure"]["classification"] == "fault_raised"
