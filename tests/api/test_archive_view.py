"""ArchiveView conformance: local, socket and cluster views, one battery.

Every test in this module runs against each ``ArchiveView``
implementation: a local :class:`RlzArchive`, an :class:`RlzClient`
talking to a live server over a socket, a :class:`ClusterClient` fanning
out over two replica servers — that same cluster *degraded*, with one of
its two shards killed before the battery runs (the failover path) — a
*partitioned* four-shard fleet where each server holds only its arc of
doc-id space — and an :class:`AsyncClusterClient` over that same fleet,
driven through a thread bridge.  The point of the ``ArchiveView`` design
is that all of them are indistinguishable: byte-identical documents,
identical ordering guarantees, identical error *types*.
"""

from __future__ import annotations

import pytest

from repro.api import (
    ArchiveConfig,
    ArchiveView,
    CacheSpec,
    DictionarySpec,
    EncodingSpec,
    RlzArchive,
)
from repro.errors import StorageError, StoreClosedError
from repro.serve import (
    BackgroundServer,
    ClusterClient,
    RlzClient,
    build_partitioned_archives,
)


def _config(shards: int = 1) -> ArchiveConfig:
    from repro.api import PartitionSpec

    return ArchiveConfig(
        dictionary=DictionarySpec(size=32 * 1024, sample_size=512),
        encoding=EncodingSpec(scheme="ZV"),
        cache=CacheSpec(tier="lru", capacity=16),
        partition=PartitionSpec(shards=shards),
    )


@pytest.fixture(scope="module")
def view_archive(tmp_path_factory, gov_small):
    path = tmp_path_factory.mktemp("views") / "conformance.rlz"
    RlzArchive.build(gov_small, _config(), path).close()
    return path


@pytest.fixture(scope="module")
def partitioned_shards(tmp_path_factory, gov_small):
    """The same collection split 4 ways: each container holds only its arc."""
    directory = tmp_path_factory.mktemp("views-partitioned")
    return build_partitioned_archives(gov_small, _config(shards=4), directory)


def _start_cluster(view_archive, replicas=2):
    servers = [BackgroundServer(view_archive, _config()) for _ in range(replicas)]
    endpoints = []
    for server in servers:
        host, port = server.start()
        endpoints.append(f"{host}:{port}")
    return servers, endpoints


def _start_partitioned(partitioned_shards):
    """One server per shard container; ``ringid@host:port`` serving labels."""
    servers, endpoints = [], []
    for ring_id, path in partitioned_shards.items():
        server = BackgroundServer(path, _config())
        host, port = server.start()
        servers.append(server)
        endpoints.append(f"{ring_id}@{host}:{port}")
    return servers, endpoints


@pytest.fixture(
    scope="module",
    params=[
        "local",
        "socket",
        "cluster",
        "cluster-degraded",
        "partitioned",
        "async-cluster",
    ],
)
def view(request, view_archive, partitioned_shards, async_view_bridge):
    """The same archive behind every ArchiveView implementation."""
    if request.param == "local":
        archive = RlzArchive.open(view_archive, _config())
        yield archive
        archive.close()
    elif request.param == "socket":
        with BackgroundServer(view_archive, _config()) as server:
            client = RlzClient(*server.address)
            yield client
            client.close()
    elif request.param in ("partitioned", "async-cluster"):
        servers, endpoints = _start_partitioned(partitioned_shards)
        if request.param == "partitioned":
            client = ClusterClient(endpoints, retries=0, retry_delay=0.01)
        else:
            client = async_view_bridge(endpoints)
        try:
            yield client
        finally:
            client.close()
            for server in servers:
                try:
                    server.stop()
                except Exception:
                    pass
    else:
        servers, endpoints = _start_cluster(view_archive)
        client = ClusterClient(
            endpoints, retries=0, retry_delay=0.01, breaker_cooldown=0.2
        )
        if request.param == "cluster-degraded":
            servers[1].stop()  # one shard dead: everything fails over
        try:
            yield client
        finally:
            client.close()
            for server in servers:
                try:
                    server.stop()
                except Exception:
                    pass


def test_implements_archive_view(view):
    assert isinstance(view, ArchiveView)


def test_get_returns_byte_identical_documents(view, gov_small):
    for document in gov_small:
        assert view.get(document.doc_id) == document.content


def test_get_many_preserves_order_and_duplicates(view, gov_small):
    doc_ids = view.doc_ids()
    request = list(reversed(doc_ids)) + doc_ids[:3] + [doc_ids[0]] * 2
    result = view.get_many(request)
    assert result == [gov_small.document_by_id(d).content for d in request]


def test_get_many_empty_request(view):
    assert view.get_many([]) == []


def test_iter_documents_scans_in_store_order(view, gov_small):
    items = list(view.iter_documents())
    assert [doc_id for doc_id, _ in items] == view.doc_ids()
    assert dict(items) == {d.doc_id: d.content for d in gov_small}


def test_doc_ids_and_len(view, gov_small):
    assert len(view) == len(gov_small)
    assert sorted(view.doc_ids()) == sorted(d.doc_id for d in gov_small)


def test_missing_document_raises_storage_error(view):
    with pytest.raises(StorageError):
        view.get(max(view.doc_ids()) + 12345)


def test_missing_document_in_batch_raises_storage_error(view):
    doc_ids = view.doc_ids()
    with pytest.raises(StorageError):
        view.get_many([doc_ids[0], max(doc_ids) + 12345])


def test_stats_is_a_flat_numeric_mapping(view):
    view.get(view.doc_ids()[0])
    stats = view.stats()
    assert isinstance(stats, dict)
    assert stats  # never empty after a request
    for key, value in stats.items():
        assert isinstance(key, str)
        assert isinstance(value, (int, float)), key


@pytest.mark.parametrize("kind", ["local", "socket", "cluster"])
def test_close_is_idempotent_and_fences(view_archive, kind):
    """Run last with private fixtures: closing the shared view would poison
    the module-scoped battery above."""
    if kind == "local":
        target = RlzArchive.open(view_archive, _config())
        cleanup = lambda: None  # noqa: E731 - nothing outside the view
    elif kind == "socket":
        server = BackgroundServer(view_archive, _config())
        server.start()
        target = RlzClient(*server.address)
        cleanup = server.stop
    else:
        servers, endpoints = _start_cluster(view_archive)
        target = ClusterClient(endpoints, retries=0, retry_delay=0.01)

        def cleanup():
            for background in servers:
                background.stop()
    try:
        doc_id = target.doc_ids()[0]
        assert target.get(doc_id)
        assert not target.closed
        target.close()
        target.close()
        assert target.closed
        with pytest.raises(StoreClosedError):
            target.get(doc_id)
        with pytest.raises(StoreClosedError):
            target.get_many([doc_id])
    finally:
        cleanup()
