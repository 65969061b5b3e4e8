"""Unit tests for the compact (array-backed) jump-start index."""

import random

import numpy as np
import pytest

from repro.suffix import CompactJumpIndex, SuffixArray


def reference_intervals(keys, shift):
    """Brute-force key -> (lb, rb) mapping from a sorted key array."""
    effective = [int(key) >> shift for key in keys]
    intervals = {}
    for rank, key in enumerate(effective):
        if key not in intervals:
            intervals[key] = [rank, rank]
        else:
            intervals[key][1] = rank
    return {key: tuple(bounds) for key, bounds in intervals.items()}


@pytest.mark.parametrize("shift", [0, 32])
def test_matches_brute_force_mapping(shift):
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randrange(0, 300)
        keys = np.sort(
            np.array([rng.randrange(0, 2**64) for _ in range(n)], dtype=np.uint64)
        )
        index = CompactJumpIndex(keys, shift=shift)
        expected = reference_intervals(keys, shift)
        assert len(index) == len(expected)
        assert dict(index.items()) == expected
        for key, interval in expected.items():
            assert index.get(key) == interval
            assert key in index
        for _ in range(25):
            probe = rng.randrange(0, 2**64) >> shift
            assert index.get(probe) == expected.get(probe)
            assert index.get(probe, "sentinel") == expected.get(probe, "sentinel")


def test_empty_key_array():
    index = CompactJumpIndex(np.array([], dtype=np.uint64))
    assert len(index) == 0
    assert index.get(0) is None
    assert index.get(12345, -1) == -1
    assert 7 not in index


def test_duplicate_heavy_keys_collapse_to_runs():
    keys = np.array([5] * 100 + [9] * 3 + [2**40] * 7, dtype=np.uint64)
    index = CompactJumpIndex(keys)
    assert len(index) == 3
    assert index.get(5) == (0, 99)
    assert index.get(9) == (100, 102)
    assert index.get(2**40) == (103, 109)


def test_extreme_key_values():
    keys = np.array([0, 0, 1, 2**63, 2**64 - 1, 2**64 - 1], dtype=np.uint64)
    index = CompactJumpIndex(keys)
    assert index.get(0) == (0, 1)
    assert index.get(1) == (2, 2)
    assert index.get(2**63) == (3, 3)
    assert index.get(2**64 - 1) == (4, 5)
    assert index.get(2**62) is None


def test_load_factor_and_memory_bounds():
    keys = np.sort(np.random.default_rng(3).integers(0, 2**63, 50_000).astype(np.uint64))
    index = CompactJumpIndex(keys)
    assert 0 < index.load_factor <= 2 / 3 + 1e-9
    # ~10 B per distinct key: 4 B run start + <= ~8 B of (power-of-two
    # rounded) hash slots.  The whole point of the structure.
    assert index.nbytes <= len(index) * 17
    assert index.table_size >= len(index)


def test_agrees_with_dict_index_on_real_text():
    """Compact and dict representations of the same suffix array must hold
    the identical mapping (the factorization loops treat them as drop-in
    replacements)."""
    text = b"abracadabra banana abracadabra \x00\x00 the end" * 8
    dict_version = SuffixArray(text)
    compact_version = SuffixArray(text)
    compact_version._SMALL_TEXT_MAX = 0
    dict_version._ensure_keys()
    compact_version._ensure_keys()
    assert dict_version.jump_index_kind == "dict"
    assert compact_version.jump_index_kind == "compact"
    assert dict(compact_version._jump_index.items()) == dict_version._jump_index
    assert dict(compact_version._jump4_index.items()) == dict_version._jump4_index


def test_rejects_oversized_inputs_early():
    class _FakeKeys:
        pass

    with pytest.raises(TypeError):
        CompactJumpIndex(_FakeKeys())


# ----------------------------------------------------------------------
# Probe cache (the hot-key fast path)
# ----------------------------------------------------------------------
def _small_index(probe_cache=16):
    keys = np.sort(np.array([1, 1, 2, 5, 5, 5, 9], dtype=np.uint64))
    return CompactJumpIndex(keys, probe_cache=probe_cache)


def test_probe_cache_counts_hits_and_misses():
    index = _small_index()
    assert index.probe_cache_info() == {
        "hits": 0, "misses": 0, "size": 0, "capacity": 16,
        "batch_hits": 0, "batch_misses": 0,
    }
    first = index.get(5)
    assert first == (3, 5)
    assert index.probe_cache_info()["misses"] == 1
    assert index.probe_cache_info()["hits"] == 0
    # The repeat answers from the cache, byte-identical.
    assert index.get(5) == first
    info = index.probe_cache_info()
    assert info == {
        "hits": 1, "misses": 1, "size": 1, "capacity": 16,
        "batch_hits": 0, "batch_misses": 0,
    }


def test_probe_cache_remembers_absent_keys():
    index = _small_index()
    sentinel = object()
    assert index.get(777) is None
    assert index.get(777, sentinel) is sentinel  # cached miss honours default
    info = index.probe_cache_info()
    assert info["hits"] == 1 and info["misses"] == 1
    # A cached miss must not shadow a present key.
    assert index.get(1) == (0, 1)


def test_probe_cache_evicts_fifo_beyond_capacity():
    index = _small_index(probe_cache=2)
    index.get(1)
    index.get(2)
    assert index.probe_cache_info()["size"] == 2
    index.get(9)  # evicts key 1
    assert index.probe_cache_info()["size"] == 2
    index.get(1)  # re-probe: a miss again
    info = index.probe_cache_info()
    assert info["hits"] == 0
    assert info["misses"] == 4


def test_probe_cache_disabled_keeps_counters_at_zero():
    index = _small_index(probe_cache=0)
    for _ in range(3):
        assert index.get(5) == (3, 5)
    assert index.probe_cache_info() == {
        "hits": 0, "misses": 0, "size": 0, "capacity": 0,
        "batch_hits": 0, "batch_misses": 0,
    }
    with pytest.raises(ValueError):
        _small_index(probe_cache=-1)


def test_probe_cache_results_match_uncached():
    rng = random.Random(7)
    keys = np.sort(
        np.array([rng.randrange(0, 50) for _ in range(200)], dtype=np.uint64)
    )
    cached = CompactJumpIndex(keys, probe_cache=8)
    uncached = CompactJumpIndex(keys, probe_cache=0)
    for _ in range(500):
        key = rng.randrange(0, 60)
        assert cached.get(key) == uncached.get(key), key
    assert cached.probe_cache_info()["hits"] > 0
