"""Store lifecycle: idempotent close, StoreClosedError, cache-tier plumbing."""

from __future__ import annotations

import pytest

from repro.core import DictionaryConfig, RlzCompressor
from repro.errors import StorageError, StoreClosedError
from repro.storage import LruCache, NullCache, RlzStore, SharedMemoryCache


@pytest.fixture(scope="module")
def store_path(tmp_path_factory, gov_small):
    compressor = RlzCompressor(
        dictionary_config=DictionaryConfig(size=32 * 1024, sample_size=512),
        scheme="ZV",
    )
    path = tmp_path_factory.mktemp("lifecycle") / "gov.repro"
    RlzStore.write(compressor.compress(gov_small), path)
    return path


def test_close_is_idempotent(store_path):
    store = RlzStore.open(store_path)
    store.close()
    store.close()  # second close must be a no-op, not a crash
    assert store.closed


def test_get_after_close_raises_store_closed(store_path, gov_small):
    store = RlzStore.open(store_path)
    doc_id = gov_small.doc_ids()[0]
    store.get(doc_id)
    store.close()
    with pytest.raises(StoreClosedError):
        store.get(doc_id)
    with pytest.raises(StoreClosedError):
        store.get_many([doc_id])
    with pytest.raises(StoreClosedError):
        next(store.iter_documents())


def test_store_closed_error_is_a_storage_error(store_path):
    store = RlzStore.open(store_path)
    store.close()
    with pytest.raises(StorageError):  # existing handlers keep working
        store.get(0)


def test_context_manager_exit_then_close(store_path, gov_small):
    with RlzStore.open(store_path) as store:
        store.get(gov_small.doc_ids()[0])
    store.close()  # after __exit__ already closed
    assert store.closed


def test_decode_cache_size_knob_is_gone(store_path):
    # The deprecated spelling of cache=LruCache(n) was removed.
    with pytest.raises(TypeError):
        RlzStore.open(store_path, decode_cache_size=3)


def test_default_open_has_no_cache_and_no_warning(store_path, recwarn):
    with RlzStore.open(store_path) as store:
        assert isinstance(store.cache, NullCache)
    deprecations = [w for w in recwarn.list if w.category is DeprecationWarning]
    assert not deprecations


def test_injected_tier_serves_and_counts(store_path, gov_small):
    doc_ids = gov_small.doc_ids()[:4]
    with RlzStore.open(store_path, cache=LruCache(2)) as store:
        first = store.get_many(doc_ids)
        again = store.get_many(doc_ids)
        assert first == again
        assert store.cache_info["capacity"] == 2


def test_shared_tier_through_store(store_path, gov_small):
    doc_id = gov_small.doc_ids()[0]
    tier = SharedMemoryCache(slots=4, slot_bytes=64 * 1024)
    with RlzStore.open(store_path, cache=tier) as store:
        document = store.get(doc_id)
        assert store.get(doc_id) == document
        assert store.cache_info["hits"] == 1
    # store.close() closed the tier (owner): the segment is unlinked.
    assert tier.cache_info()["size"] == 0
