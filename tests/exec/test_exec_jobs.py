"""ScenarioJob identity: hashing, serialization, code fingerprint."""

import dataclasses
import enum

import pytest

from repro.bench.runner import ScenarioResult, scenario_config
from repro.common.config import (
    GPUConfig,
    MemoryConfig,
    ModelName,
    PMPlacement,
    SBRPConfig,
    SystemConfig,
    stable_hash,
)
from repro.common.errors import ConfigError
from repro.exec import MODE_RECOVERY, ScenarioJob, code_fingerprint


@pytest.fixture
def config() -> SystemConfig:
    return scenario_config(ModelName.SBRP, PMPlacement.NEAR)


@pytest.fixture
def job(config) -> ScenarioJob:
    return ScenarioJob(app="srad", config=config, app_params={"side": 32})


class TestStableHash:
    def test_deterministic_and_order_insensitive(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_enums_hash_as_values(self):
        assert stable_hash(ModelName.SBRP) == stable_hash("sbrp")
        assert stable_hash([PMPlacement.NEAR]) == stable_hash(["near"])

    def test_distinct_objects_distinct_hashes(self):
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})


class TestConfigSerialization:
    def test_round_trip(self, config):
        rebuilt = SystemConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.cache_key() == config.cache_key()

    def test_round_trip_survives_json(self, config):
        import json

        rebuilt = SystemConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert rebuilt == config

    def test_unread_top_level_keys_are_ignored(self, config):
        # Documents written before a knob was removed still load.
        doc = dict(config.to_dict(), retired_knob=True)
        assert SystemConfig.from_dict(doc) == config

    @pytest.mark.parametrize(
        "mutate,match",
        [
            (lambda doc: doc.clear(), "'memory'"),
            (lambda doc: doc.pop("model"), "'model'"),
            (lambda doc: doc["memory"].pop("placement"), "'memory.placement'"),
            (lambda doc: doc["gpu"].update(warp9=1), r"gpu.*\['warp9'\]"),
            (lambda doc: doc["resilience"].update(x=1), r"resilience.*\['x'\]"),
        ],
        ids=["empty", "no-model", "no-placement", "gpu-field", "resilience-field"],
    )
    def test_malformed_document_raises_config_error(self, config, mutate, match):
        doc = config.to_dict()
        mutate(doc)
        with pytest.raises(ConfigError, match=match):
            SystemConfig.from_dict(doc)


def _altered(value):
    """A different value of the same general shape as *value*."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, enum.Enum):
        members = list(type(value))
        return members[(members.index(value) + 1) % len(members)]
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 2 + 1.0
    raise AssertionError(f"no alteration rule for {value!r}")


class TestCacheKeyProperty:
    """replace()-ing ANY field of any sub-config must change the key."""

    def _assert_all_fields_matter(self, base_system, attr, sub_config):
        for field in dataclasses.fields(sub_config):
            old = getattr(sub_config, field.name)
            changed = dataclasses.replace(
                sub_config, **{field.name: _altered(old)}
            )
            system = dataclasses.replace(base_system, **{attr: changed})
            assert system.cache_key() != base_system.cache_key(), (
                f"cache_key ignored {attr}.{field.name}"
            )

    def test_gpu_fields(self, config):
        self._assert_all_fields_matter(config, "gpu", config.gpu)

    def test_memory_fields(self, config):
        self._assert_all_fields_matter(config, "memory", config.memory)

    def test_sbrp_fields(self, config):
        self._assert_all_fields_matter(config, "sbrp", config.sbrp)

    def test_top_level_fields(self, config):
        assert (
            dataclasses.replace(config, model=ModelName.EPOCH).cache_key()
            != config.cache_key()
        )
        assert (
            dataclasses.replace(config, seed=config.seed + 1).cache_key()
            != config.cache_key()
        )

    def test_equal_configs_share_key(self, config):
        twin = scenario_config(ModelName.SBRP, PMPlacement.NEAR)
        assert twin.cache_key() == config.cache_key()


class TestScenarioJob:
    def test_json_round_trip(self, job):
        rebuilt = ScenarioJob.from_json(job.to_json())
        assert rebuilt == job
        assert rebuilt.key == job.key
        assert rebuilt.spec_hash == job.spec_hash

    def test_key_changes_with_app_params(self, job):
        other = dataclasses.replace(job, app_params={"side": 48})
        assert other.key != job.key
        assert other.spec_hash != job.spec_hash

    def test_key_changes_with_app_and_config(self, job, config):
        assert dataclasses.replace(job, app="scan").key != job.key
        far = scenario_config(ModelName.SBRP, PMPlacement.FAR)
        assert dataclasses.replace(job, config=far).key != job.key

    def test_key_changes_with_mode_and_verify(self, job):
        recovery = dataclasses.replace(job, mode=MODE_RECOVERY)
        assert recovery.key != job.key
        unverified = dataclasses.replace(job, verify=False)
        assert unverified.key != job.key

    def test_trace_options_do_not_change_identity(self, job):
        traced = dataclasses.replace(job, trace_dir="/tmp/x", trace_tag="t")
        assert traced.spec_hash == job.spec_hash
        assert traced.key == job.key
        assert not traced.cacheable
        assert job.cacheable

    def test_key_includes_code_fingerprint(self, job):
        assert job.key == stable_hash(
            {"spec": job.spec, "code": code_fingerprint()}
        )
        assert job.key != job.spec_hash

    def test_unknown_mode_rejected(self, config):
        with pytest.raises(ConfigError):
            ScenarioJob(app="srad", config=config, mode="bogus")

    def test_label(self, job):
        assert job.label == "srad@SBRP-near"
        recovery = dataclasses.replace(job, mode=MODE_RECOVERY)
        assert "recovery" in recovery.label


class TestScenarioResultSerialization:
    def test_round_trip_with_profile(self):
        result = ScenarioResult(
            app="srad",
            label="SBRP-near",
            cycles=123.5,
            stats={"l1.read_miss_pm": 7.0, "persist.lines": 3.0},
            profile="ascii profile",
        )
        rebuilt = ScenarioResult.from_json(result.to_json())
        assert rebuilt == result
        assert rebuilt.profile == "ascii profile"
        assert rebuilt.stat("persist.lines") == 3.0

    def test_round_trip_without_profile_survives_json(self):
        import json

        result = ScenarioResult(
            app="scan", label="GPM", cycles=9.0, stats={"a.b": 1.5}
        )
        rebuilt = ScenarioResult.from_json(
            json.loads(json.dumps(result.to_json()))
        )
        assert rebuilt == result
        assert rebuilt.profile is None


class TestCodeFingerprint:
    def test_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()

    def test_hex_digest_shape(self):
        fp = code_fingerprint()
        assert len(fp) == 64
        int(fp, 16)  # raises if not hex


class TestJobExecute:
    def test_execute_runs_scenario(self, job):
        result = job.execute()
        assert result.app == "srad"
        assert result.label == "SBRP-near"
        assert result.cycles > 0
        assert result.stat("persist.lines") > 0

    def test_execute_recovery_mode(self, config):
        job = ScenarioJob(
            app="reduction",
            config=config,
            app_params={"blocks": 2, "per_thread": 1},
            mode=MODE_RECOVERY,
        )
        result = job.execute()
        assert result.cycles > 0
        assert result.stat("recovery.cycles") == result.cycles
