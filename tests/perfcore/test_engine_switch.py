"""The ``SystemConfig.engine`` switch: selection, validation, caching.

The reference engine is retained as the oracle for the differential
harness; these tests pin the plumbing that keeps it selectable — config
validation, the device's engine/SM class choice, JSON round-trips, and
cache-key separation so reference and fast results never dedupe to one
cached entry.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.config import ModelName, small_system
from repro.common.errors import ConfigError
from repro.gpu.engine import Engine, FastEngine
from repro.system import GPUSystem


def test_default_engine_is_fast():
    config = small_system(ModelName.SBRP)
    assert config.engine == "fast"


def test_invalid_engine_rejected():
    config = replace(small_system(ModelName.SBRP), engine="warp9")
    with pytest.raises(ConfigError, match="engine"):
        config.validate()


@pytest.mark.parametrize(
    "engine,engine_cls,sm_cls_name",
    [
        ("reference", Engine, "SM"),
        ("fast", FastEngine, "FastSM"),
    ],
)
def test_device_honours_engine_selection(engine, engine_cls, sm_cls_name):
    config = replace(small_system(ModelName.EPOCH), engine=engine)
    system = GPUSystem(config)
    assert type(system.gpu.engine) is engine_cls
    assert all(type(sm).__name__ == sm_cls_name for sm in system.gpu.sms)


def test_engine_round_trips_through_json():
    config = replace(small_system(ModelName.SBRP), engine="reference")
    restored = config.from_dict(config.to_dict())
    assert restored.engine == "reference"
    # Legacy documents without the field default to the fast core.
    legacy = config.to_dict()
    legacy.pop("engine")
    restored = config.from_dict(legacy)
    assert restored.engine == "fast"


def test_engine_participates_in_cache_key():
    fast = small_system(ModelName.SBRP)
    reference = replace(fast, engine="reference")
    assert fast.cache_key() != reference.cache_key()
