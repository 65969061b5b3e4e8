"""Tests for the ArchiveConfig dataclass tree."""

from __future__ import annotations

import pytest

from repro.api import (
    ArchiveConfig,
    CacheSpec,
    DictionarySpec,
    EncodingSpec,
    ParallelSpec,
    ServeSpec,
)
from repro.errors import ConfigurationError
from repro.storage import LruCache, NullCache, SharedMemoryCache


def test_default_config_is_valid_and_paper_faithful():
    config = ArchiveConfig()
    assert config.dictionary.size is None  # auto-sized
    assert config.encoding.scheme == "ZZ"
    assert config.parallel.workers is None  # serial
    assert config.cache.tier == "none"  # cold decodes


def test_dictionary_auto_sizing():
    spec = DictionarySpec()
    assert spec.sized_for(100 * 1024 * 1024) == 1024 * 1024  # 1%
    assert spec.sized_for(1024) == 64 * 1024  # floor
    assert DictionarySpec(size=123).sized_for(10**9) == 123  # explicit wins


@pytest.mark.parametrize(
    "kwargs",
    [
        {"size": 0},
        {"size": -5},
        {"sample_size": 0},
        {"policy": "mystery"},
        {"prefix_fraction": 0.0},
        {"prefix_fraction": 1.5},
        {"sample_size": -3},
    ],
)
def test_dictionary_spec_validation(kwargs):
    with pytest.raises(ConfigurationError):
        DictionarySpec(**kwargs)


def test_encoding_scheme_is_uppercased():
    assert EncodingSpec(scheme="zv").scheme == "ZV"
    with pytest.raises(ConfigurationError):
        EncodingSpec(scheme="")


@pytest.mark.parametrize(
    "kwargs",
    [{"workers": -1}, {"start_method": "thread"}],
)
def test_parallel_spec_validation(kwargs):
    with pytest.raises(ConfigurationError):
        ParallelSpec(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tier": "disk"},
        {"tier": "lru"},  # needs capacity
        {"tier": "lru", "capacity": -2},
        {"tier": "none", "capacity": 8},
        {"tier": "shared", "capacity": 4, "slot_bytes": 0},
        {"tier": "lru", "capacity": 4, "name": "x"},  # name is shared-only
    ],
)
def test_cache_spec_validation(kwargs):
    with pytest.raises(ConfigurationError):
        CacheSpec(**kwargs)


def test_cache_spec_builds_each_tier():
    assert isinstance(CacheSpec().build_tier(), NullCache)
    assert isinstance(CacheSpec(tier="lru", capacity=3).build_tier(), LruCache)
    shared = CacheSpec(tier="shared", capacity=2, slot_bytes=512).build_tier()
    try:
        assert isinstance(shared, SharedMemoryCache)
        assert shared.slots == 2 and shared.slot_bytes == 512
    finally:
        shared.close()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"host": ""},
        {"port": -1},
        {"port": 70000},
        {"max_inflight": 0},
        {"max_frame_bytes": 100},
        {"drain_seconds": -1.0},
    ],
)
def test_serve_spec_validation(kwargs):
    with pytest.raises(ConfigurationError):
        ServeSpec(**kwargs)


def test_serve_spec_defaults_are_loopback_ephemeral():
    spec = ServeSpec()
    assert spec.host == "127.0.0.1"
    assert spec.port == 0
    assert spec.max_inflight > 0


def test_config_sections_are_type_checked():
    with pytest.raises(ConfigurationError):
        ArchiveConfig(dictionary={"size": 1024})  # type: ignore[arg-type]
    with pytest.raises(ConfigurationError):
        ArchiveConfig(cache="lru")  # type: ignore[arg-type]


def test_to_dict_from_dict_roundtrip():
    config = ArchiveConfig(
        dictionary=DictionarySpec(size=64 * 1024, sample_size=512),
        encoding=EncodingSpec(scheme="UV"),
        parallel=ParallelSpec(workers=2, start_method="spawn", share_memory=True),
        cache=CacheSpec(tier="lru", capacity=16),
        serve=ServeSpec(host="0.0.0.0", port=8765, max_inflight=16),
    )
    rebuilt = ArchiveConfig.from_dict(config.to_dict())
    assert rebuilt == config


def test_from_dict_rejects_unknown_sections_and_fields():
    with pytest.raises(ConfigurationError):
        ArchiveConfig.from_dict({"caching": {}})
    with pytest.raises(ConfigurationError):
        ArchiveConfig.from_dict({"encoding": {"schema": "ZZ"}})
    # The removed ServeSpec.deadline / ServeSpec.retry sections fail loudly.
    with pytest.raises(ConfigurationError):
        ArchiveConfig.from_dict({"serve": {"deadline": {"default_ms": 100}}})
    with pytest.raises(ConfigurationError):
        ArchiveConfig.from_dict({"serve": {"retry": {"busy_retries": 4}}})


def test_from_dict_accepts_partial_and_spec_instances():
    config = ArchiveConfig.from_dict({"encoding": EncodingSpec(scheme="ZV")})
    assert config.encoding.scheme == "ZV"
    assert config.cache == CacheSpec()
