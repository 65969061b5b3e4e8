"""SEARCH served over sockets: single archive, async, and sharded fan-out.

The tentpole claim under test: a sharded SEARCH over a partitioned fleet
returns *exactly* the ranking (ids, scores, order) a single in-memory
:class:`repro.search.InvertedIndex` over the whole collection computes —
the stats-exchange leg makes per-shard BM25 collection-exact, the merge
is deterministic, and snippets come from windowed partial decode on the
shard that owns the document.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api import (
    ArchiveConfig,
    DictionarySpec,
    EncodingSpec,
    PartitionSpec,
    RlzArchive,
    SearchSpec,
)
from repro.errors import SearchError
from repro.search import InvertedIndex, index_sidecar_path, tokenize_text
from repro.search.serving import PostingsStore
from repro.serve import (
    AsyncClusterClient,
    AsyncRlzClient,
    BackgroundServer,
    ClusterClient,
    RlzClient,
    build_partitioned_archives,
)


def _search_config(shards: int = 0) -> ArchiveConfig:
    return ArchiveConfig(
        dictionary=DictionarySpec(size=32 * 1024, sample_size=512),
        encoding=EncodingSpec(scheme="ZV"),
        partition=PartitionSpec(shards=shards) if shards else PartitionSpec(),
        search=SearchSpec(enabled=True),
    )


def _queries(collection):
    counts = {}
    for document in collection:
        for term in set(tokenize_text(document.text())):
            counts[term] = counts.get(term, 0) + 1
    common = sorted(counts, key=lambda term: (-counts[term], term))
    rare = sorted(counts, key=lambda term: (counts[term], term))
    return [common[0], " ".join(common[:3]), f"{common[0]} {rare[0]}", rare[0]]


@pytest.fixture(scope="module")
def indexed_archive(tmp_path_factory, gov_small):
    """One unpartitioned archive built with its search sidecar."""
    path = tmp_path_factory.mktemp("search-serve") / "indexed.rlz"
    config = _search_config()
    RlzArchive.build(gov_small, config, path).close()
    assert index_sidecar_path(path).exists()
    return path, config, gov_small


@pytest.fixture(scope="module")
def search_server(indexed_archive):
    path, config, _ = indexed_archive
    with BackgroundServer(path, config) as server:
        yield server


@pytest.fixture(scope="module")
def reference(gov_small):
    return InvertedIndex.build(gov_small)


# ----------------------------------------------------------------------
# Single archive over a socket
# ----------------------------------------------------------------------
def test_remote_search_equals_local_index(search_server, reference, gov_small):
    with RlzClient(*search_server.address) as client:
        for query in _queries(gov_small):
            expected = reference.search(query, top_k=10)
            hits = client.search(query, top_k=10)
            assert [hit.doc_id for hit in hits] == [r.doc_id for r in expected]
            assert [hit.score for hit in hits] == [r.score for r in expected]


def test_snippets_come_from_the_document(search_server, gov_small):
    query = _queries(gov_small)[0]
    contents = {document.doc_id: document.content for document in gov_small}
    with RlzClient(*search_server.address) as client:
        hits = client.search(query, top_k=5, snippet_chars=120)
        assert hits
        for hit in hits:
            assert 0 < len(hit.snippet) <= 120
            # The window is a verbatim slice of the stored document,
            # positioned where the server says it is.
            document = contents[hit.doc_id]
            assert (
                document[hit.snippet_start : hit.snippet_start + len(hit.snippet)]
                == hit.snippet
            )
            # Query-biased: the window contains a query term.
            assert any(
                term.encode() in hit.snippet.lower()
                for term in tokenize_text(query)
            )


@pytest.fixture
def executor_submissions(monkeypatch):
    """Every ``run_in_executor`` call made by any event loop (the server's
    included) while the test runs, as ``(executor, func)``."""
    submitted = []
    original = asyncio.BaseEventLoop.run_in_executor

    def counting(loop, executor, func, *args):
        submitted.append((executor, func))
        return original(loop, executor, func, *args)

    monkeypatch.setattr(asyncio.BaseEventLoop, "run_in_executor", counting)
    return submitted


def test_snippet_search_is_one_executor_hop(
    search_server, indexed_archive, gov_small, executor_submissions
):
    """Scoring and all top-k snippet windows share one submission to the
    archive front's decode pool (never the loop's default executor), the
    stats leg goes to the same pool, and the reply is exactly what scoring
    then windowing each hit gives."""
    path, _, _ = indexed_archive
    query = _queries(gov_small)[1]
    contents = {document.doc_id: document.content for document in gov_small}
    chars = 120
    expected = [
        (
            hit.doc_id,
            hit.score,
            contents[hit.doc_id][start : start + chars],
            start,
        )
        for hit in PostingsStore.open(index_sidecar_path(path)).search(query, top_k=10)
        for start in [max(0, hit.hit_offset - chars // 2)]
    ]
    assert len(expected) > 1
    with RlzClient(*search_server.address) as client:
        client.search(query, top_k=10, snippet_chars=chars)  # opens lazily
        pool = search_server._server.front._executor
        executor_submissions.clear()
        hits = client.search(query, top_k=10, snippet_chars=chars)
        assert [executor for executor, _ in executor_submissions] == [pool]
        assert [
            (hit.doc_id, hit.score, hit.snippet, hit.snippet_start) for hit in hits
        ] == expected

        executor_submissions.clear()
        num_documents, _, _ = client.search_stats(query)
        assert [executor for executor, _ in executor_submissions] == [pool]
        assert num_documents == len(gov_small)


def test_no_snippets_by_default(search_server, gov_small):
    with RlzClient(*search_server.address) as client:
        hits = client.search(_queries(gov_small)[0], top_k=3)
        assert hits and all(hit.snippet == b"" for hit in hits)


def test_stats_leg_reports_local_statistics(search_server, reference, gov_small):
    query = _queries(gov_small)[1]
    with RlzClient(*search_server.address) as client:
        num_documents, total_length, frequencies = client.search_stats(query)
    assert num_documents == len(gov_small)
    assert total_length > 0
    assert frequencies == {
        term: reference.document_frequency(term)
        for term in set(tokenize_text(query))
    }


def test_no_results_for_unknown_terms(search_server):
    with RlzClient(*search_server.address) as client:
        assert client.search("zzz-never-indexed-zzz") == []


def test_health_exposes_search_counters(search_server, gov_small):
    with RlzClient(*search_server.address) as client:
        client.search(_queries(gov_small)[0])
        health = client.health()
    (archive_health,) = health.values()
    assert archive_health["search_index"] == 1
    assert archive_health["search_requests"] >= 1


def test_archive_without_index_raises_search_error(tmp_path, gov_small):
    config = ArchiveConfig(
        dictionary=DictionarySpec(size=32 * 1024, sample_size=512),
        encoding=EncodingSpec(scheme="ZV"),
    )
    path = tmp_path / "noindex.rlz"
    RlzArchive.build(gov_small, config, path).close()
    assert not index_sidecar_path(path).exists()
    with BackgroundServer(path, config) as server:
        with RlzClient(*server.address) as client:
            with pytest.raises(SearchError, match="no search index"):
                client.search("anything at all")


def test_async_client_search_parity(search_server, reference, gov_small):
    queries = _queries(gov_small)

    async def main():
        async with AsyncRlzClient(*search_server.address) as client:
            ranked = [await client.search(query, top_k=10) for query in queries]
            stats = await client.search_stats(queries[0])
        return ranked, stats

    ranked, stats = asyncio.run(main())
    for query, hits in zip(queries, ranked):
        expected = reference.search(query, top_k=10)
        assert [hit.doc_id for hit in hits] == [r.doc_id for r in expected]
        assert [hit.score for hit in hits] == [r.score for r in expected]
    assert stats[0] == len(gov_small)


# ----------------------------------------------------------------------
# Sharded fan-out over a partitioned fleet
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def search_fleet(tmp_path_factory, gov_small):
    """A 4-way partitioned fleet, every shard carrying its own index."""
    directory = tmp_path_factory.mktemp("search-fleet")
    paths = build_partitioned_archives(gov_small, _search_config(shards=4), directory)
    for path in paths.values():
        assert index_sidecar_path(path).exists()
    servers, endpoints = [], []
    try:
        for ring_id, path in paths.items():
            server = BackgroundServer(path, _search_config())
            host, port = server.start()
            servers.append(server)
            endpoints.append(f"{ring_id}@{host}:{port}")
        yield endpoints
    finally:
        for server in servers:
            server.stop()


def test_sharded_search_equals_single_local_index(
    search_fleet, reference, gov_small
):
    """The acceptance criterion: identical ids, scores and order."""
    with ClusterClient(search_fleet, retries=0, retry_delay=0.01) as client:
        for query in _queries(gov_small):
            expected = reference.search(query, top_k=10)
            hits = client.search(query, top_k=10)
            assert [hit.doc_id for hit in hits] == [r.doc_id for r in expected]
            assert [hit.score for hit in hits] == [r.score for r in expected]


def test_sharded_snippets_decode_on_the_owning_shard(search_fleet, gov_small):
    query = _queries(gov_small)[0]
    contents = {document.doc_id: document.content for document in gov_small}
    with ClusterClient(search_fleet, retries=0, retry_delay=0.01) as client:
        hits = client.search(query, top_k=6, snippet_chars=100)
        assert hits
        for hit in hits:
            document = contents[hit.doc_id]
            assert (
                document[hit.snippet_start : hit.snippet_start + len(hit.snippet)]
                == hit.snippet
            )


def test_sharded_search_respects_top_k(search_fleet, reference, gov_small):
    query = _queries(gov_small)[1]
    with ClusterClient(search_fleet, retries=0, retry_delay=0.01) as client:
        hits = client.search(query, top_k=3)
        assert len(hits) == min(3, len(reference.search(query, top_k=3)))


def test_async_sharded_search_parity(search_fleet, reference, gov_small):
    queries = _queries(gov_small)

    async def main():
        async with AsyncClusterClient(
            search_fleet, retries=0, retry_delay=0.01
        ) as client:
            return [await client.search(query, top_k=10) for query in queries]

    for query, hits in zip(queries, asyncio.run(main())):
        expected = reference.search(query, top_k=10)
        assert [hit.doc_id for hit in hits] == [r.doc_id for r in expected]
        assert [hit.score for hit in hits] == [r.score for r in expected]


# ----------------------------------------------------------------------
# Stats-exchange leg cached per shard-map epoch
# ----------------------------------------------------------------------
def test_search_stats_leg_cached_per_epoch(search_fleet, reference, gov_small):
    """Repeating a query reuses the global statistics (one stats fan-out
    per epoch); adopting a newer epoch invalidates the cache."""
    query = _queries(gov_small)[0]
    with ClusterClient(search_fleet, retries=0, retry_delay=0.01) as client:
        first = client.search(query, top_k=10)
        stats = client.stats()
        assert stats["cluster_search_stats_cache_misses"] == 1
        assert stats["cluster_search_stats_cache_hits"] == 0

        second = client.search(query, top_k=10)
        stats = client.stats()
        assert stats["cluster_search_stats_cache_misses"] == 1
        assert stats["cluster_search_stats_cache_hits"] == 1
        # Cached statistics must not change the ranking.
        assert [hit.doc_id for hit in second] == [hit.doc_id for hit in first]
        assert [hit.score for hit in second] == [hit.score for hit in first]
        expected = reference.search(query, top_k=10)
        assert [hit.doc_id for hit in second] == [r.doc_id for r in expected]

        # A newer epoch moves documents between shards: the cache clears
        # and the next search pays a fresh stats fan-out.
        adopted = client._adopt(
            client.epoch + 1,
            client.endpoints,
            client.shard_map.virtual_nodes,
        )
        assert adopted
        assert len(client._stats_cache) == 0
        client.search(query, top_k=10)
        stats = client.stats()
        assert stats["cluster_search_stats_cache_misses"] == 2


def test_search_stats_cache_is_bounded(search_fleet, gov_small):
    queries = _queries(gov_small)
    with ClusterClient(search_fleet, retries=0, retry_delay=0.01) as client:
        client._STATS_CACHE_CAP = 1
        for query in queries[:2]:
            client.search(query, top_k=3)
        assert len(client._stats_cache) == 1
        # The most recent query is the one retained.
        assert list(client._stats_cache) == [queries[1]]


def test_async_search_stats_leg_cached(search_fleet, reference, gov_small):
    query = _queries(gov_small)[0]

    async def main():
        async with AsyncClusterClient(
            search_fleet, retries=0, retry_delay=0.01
        ) as client:
            first = await client.search(query, top_k=10)
            second = await client.search(query, top_k=10)
            stats = await client.stats()
            return first, second, stats

    first, second, stats = asyncio.run(main())
    assert stats["cluster_search_stats_cache_misses"] == 1
    assert stats["cluster_search_stats_cache_hits"] == 1
    assert [hit.doc_id for hit in second] == [hit.doc_id for hit in first]
    assert [hit.score for hit in second] == [hit.score for hit in first]
    expected = reference.search(query, top_k=10)
    assert [hit.doc_id for hit in second] == [r.doc_id for r in expected]
