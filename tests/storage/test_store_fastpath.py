"""Tests for the store-level retrieval fast path: get_many and the cache."""

import pytest

from repro.storage import LruCache, NullCache, RlzStore


def _lru(capacity):
    """The decode-cache tier holding ``capacity`` documents (0 = none)."""
    return LruCache(capacity) if capacity else NullCache()


@pytest.fixture(scope="module")
def store_path(tmp_path_factory, gov_compressed):
    path = tmp_path_factory.mktemp("rlzfast") / "gov.repro"
    RlzStore.write(gov_compressed, path)
    return path


def test_get_many_matches_get(store_path, gov_small):
    doc_ids = gov_small.doc_ids()
    with RlzStore.open(store_path) as store:
        batch = store.get_many(doc_ids)
        assert batch == [store.get(doc_id) for doc_id in doc_ids]


def test_get_many_handles_repeats_and_order(store_path, gov_small):
    doc_ids = gov_small.doc_ids()
    request = [doc_ids[2], doc_ids[0], doc_ids[2], doc_ids[1], doc_ids[0]]
    with RlzStore.open(store_path) as store:
        batch = store.get_many(request)
    assert len(batch) == len(request)
    assert batch[0] == batch[2]
    assert batch[1] == batch[4]
    for doc_id, content in zip(request, batch):
        document = next(d for d in gov_small if d.doc_id == doc_id)
        assert content == document.content


def test_cache_serves_repeated_access_without_disk_reads(store_path, gov_small):
    doc_id = gov_small.doc_ids()[0]
    with RlzStore.open(store_path, cache=_lru(4)) as store:
        first = store.get(doc_id)
        store.disk.reset()
        second = store.get(doc_id)
        assert second == first
        assert store.disk.accounting.seeks == 0
        assert store.cache_info["hits"] == 1
        assert store.cache_info["misses"] >= 1


def test_cache_evicts_least_recently_used(store_path, gov_small):
    doc_ids = gov_small.doc_ids()[:3]
    with RlzStore.open(store_path, cache=_lru(2)) as store:
        store.get(doc_ids[0])
        store.get(doc_ids[1])
        store.get(doc_ids[0])  # refresh doc 0
        store.get(doc_ids[2])  # evicts doc 1
        store.disk.reset()
        store.get(doc_ids[0])
        assert store.disk.accounting.seeks == 0
        store.get(doc_ids[1])
        assert store.disk.accounting.seeks == 1


def test_cache_disabled_by_default(store_path, gov_small):
    doc_id = gov_small.doc_ids()[0]
    with RlzStore.open(store_path) as store:
        store.get(doc_id)
        store.disk.reset()
        store.get(doc_id)
        assert store.disk.accounting.seeks == 1
        assert store.cache_info["capacity"] == 0


def test_get_many_uses_cache(store_path, gov_small):
    doc_ids = gov_small.doc_ids()[:4]
    with RlzStore.open(store_path, cache=_lru(8)) as store:
        store.get_many(doc_ids)
        store.disk.reset()
        again = store.get_many(doc_ids)
        assert store.disk.accounting.seeks == 0
        assert again == [store.get(doc_id) for doc_id in doc_ids]


def _access_sequences(doc_ids):
    """Access patterns that exercise hits, repeats, eviction and interleaving."""
    return [
        [doc_ids[0], doc_ids[0]],
        [doc_ids[0], doc_ids[1], doc_ids[0], doc_ids[2], doc_ids[0]],
        [doc_ids[2], doc_ids[2], doc_ids[2]],
        list(doc_ids[:4]) * 2,
        [doc_ids[3], doc_ids[0], doc_ids[3], doc_ids[1], doc_ids[1], doc_ids[2]],
    ]


@pytest.mark.parametrize("capacity", [0, 1, 2, 8])
def test_get_many_cache_accounting_matches_get(store_path, gov_small, capacity):
    """The same access sequence must produce identical hit/miss counters,
    cache size and LRU contents whether issued via ``get`` or ``get_many``
    — including when the batch itself overflows the cache and evicts
    entries mid-replay."""
    doc_ids = gov_small.doc_ids()
    for sequence in _access_sequences(doc_ids):
        with RlzStore.open(store_path, cache=_lru(capacity)) as via_get, RlzStore.open(
            store_path, cache=_lru(capacity)
        ) as via_get_many:
            expected = [via_get.get(doc_id) for doc_id in sequence]
            batch = via_get_many.get_many(sequence)
            assert batch == expected
            assert via_get_many.cache_info == via_get.cache_info
            # Same contents *and* the same LRU recency order.
            assert list(via_get_many._cache.items()) == list(via_get._cache.items())


def test_get_many_replays_entry_evicted_during_batch(store_path, gov_small):
    """An ID cached before the batch but evicted while the batch replays
    must be re-decoded exactly as ``get`` would (miss counted, bytes
    correct)."""
    doc_ids = gov_small.doc_ids()
    with RlzStore.open(store_path, cache=_lru(1)) as store:
        a, b = doc_ids[0], doc_ids[1]
        store.get(a)  # cache == {a}
        batch = store.get_many([b, a])  # b evicts a, then a must re-decode
        assert batch == [store.get(b), store.get(a)]

    with RlzStore.open(store_path, cache=_lru(1)) as reference:
        reference.get(a)
        reference.get(b)
        reference.get(a)
    with RlzStore.open(store_path, cache=_lru(1)) as store:
        store.get(a)
        store.get_many([b, a])
        assert store.cache_info == reference.cache_info
