"""API-surface snapshot: accidental export removals must fail the build.

These sets are the *intended* public surface.  If you remove or rename an
export on purpose, update the snapshot here in the same change (and note it
in CHANGES.md); if this test fails and you did not intend an API change,
the change is a regression.
"""

from __future__ import annotations

import repro
import repro.api
import repro.serve
import repro.storage

TOP_LEVEL_EXPORTS = {
    # facade
    "ArchiveConfig",
    "ArchiveView",
    "AsyncArchiveView",
    "AsyncRlzArchive",
    "CacheSpec",
    "DictionarySpec",
    "EncodingSpec",
    "ParallelSpec",
    "PartitionSpec",
    "RlzArchive",
    "ServeSpec",
    # network serving
    "AsyncClusterClient",
    "AsyncRlzClient",
    "BackgroundServer",
    "ClusterClient",
    "RlzClient",
    "RlzRouter",
    "RlzServer",
    "ShardMap",
    # cache tiers
    "CacheTier",
    "LruCache",
    "NullCache",
    "SharedMemoryCache",
    # core pipeline
    "CompressedCollection",
    "CompressionReport",
    "DictionaryConfig",
    "Factor",
    "Factorization",
    "PairEncoder",
    "RlzCompressor",
    "RlzDictionary",
    "RlzFactorizer",
    "RlzStore",
    "SuffixArray",
    "build_dictionary",
    # corpus
    "Document",
    "DocumentCollection",
    "generate_gov_collection",
    "generate_wikipedia_collection",
    "url_sorted",
    # errors
    "BenchmarkError",
    "ConfigurationError",
    "CorpusError",
    "CorruptArchiveError",
    "DeadlineExceededError",
    "DecodingError",
    "DictionaryError",
    "EncodingError",
    "FactorizationError",
    "ProtocolError",
    "ReproError",
    "SearchError",
    "ServerBusyError",
    "StorageError",
    "StoreClosedError",
    "WrongShardError",
    # metadata
    "__version__",
}

API_EXPORTS = {
    "ArchiveConfig",
    "ArchiveStats",
    "ArchiveView",
    "AsyncArchiveView",
    "AsyncRlzArchive",
    "CacheSpec",
    "DictionarySpec",
    "EncodingSpec",
    "ParallelSpec",
    "PartitionSpec",
    "RequestStats",
    "RlzArchive",
    "SearchSpec",
    "ServeSpec",
}

SERVE_EXPORTS = {
    "AsyncClusterClient",
    "AsyncRlzClient",
    "BackgroundServer",
    "CircuitBreaker",
    "ClusterClient",
    "ConnectionStats",
    "Deadline",
    "ERROR_CODES",
    "MAGIC",
    "Opcode",
    "PROTOCOL_V5",
    "PROTOCOL_VERSION",
    "RebalanceReport",
    "RetryBudget",
    "RlzClient",
    "RlzRouter",
    "RlzServer",
    "SearchHit",
    "ShardMap",
    "build_partitioned_archives",
    "rebalance",
    "write_spare_shard",
}

STORAGE_EXPORTS = {
    "BlockedStore",
    "BlockedStoreConfig",
    "CacheTier",
    "ContainerHeader",
    "DiskAccounting",
    "DiskModel",
    "DocumentEntry",
    "DocumentMap",
    "LruCache",
    "NullCache",
    "PartitionManifest",
    "RawStore",
    "RlzStore",
    "SharedMemoryCache",
    "read_container_header",
    "verify_container",
    "write_container",
}


def _assert_surface(module, expected):
    exported = set(module.__all__)
    missing = expected - exported
    unexpected = exported - expected
    assert not missing, f"{module.__name__} lost exports: {sorted(missing)}"
    assert not unexpected, (
        f"{module.__name__} grew exports not in the snapshot: "
        f"{sorted(unexpected)} (update tests/test_api_surface.py deliberately)"
    )
    for name in expected:
        assert hasattr(module, name), f"{module.__name__}.{name} is in __all__ but absent"


def test_top_level_surface():
    _assert_surface(repro, TOP_LEVEL_EXPORTS)


def test_api_package_surface():
    _assert_surface(repro.api, API_EXPORTS)


def test_storage_package_surface():
    _assert_surface(repro.storage, STORAGE_EXPORTS)


def test_serve_package_surface():
    _assert_surface(repro.serve, SERVE_EXPORTS)


def test_no_duplicate_exports():
    for module in (repro, repro.api, repro.serve, repro.storage):
        assert len(module.__all__) == len(set(module.__all__)), module.__name__
