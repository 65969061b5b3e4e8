"""End-to-end tests: RlzServer serving RlzClient / AsyncRlzClient."""

from __future__ import annotations

import asyncio
import dataclasses
import socket
import threading
import uuid

import pytest

from repro.api import AsyncArchiveView, CacheSpec, ServeSpec
from repro.errors import ProtocolError, StorageError, StoreClosedError
from repro.serve import AsyncRlzClient, BackgroundServer, RlzClient, RlzServer


@pytest.fixture()
def live_server(served_archive):
    path, config, _ = served_archive
    with BackgroundServer(path, config) as server:
        yield server


def test_client_roundtrips_and_ordering(live_server, served_archive):
    _, _, collection = served_archive
    host, port = live_server.address
    with RlzClient(host, port) as client:
        doc_ids = client.doc_ids()
        assert doc_ids == sorted(document.doc_id for document in collection)
        assert len(client) == len(collection)
        # get: byte identity
        assert client.get(doc_ids[0]) == collection.document_by_id(doc_ids[0]).content
        # get_many: request order, duplicates preserved
        batch_ids = list(reversed(doc_ids)) + [doc_ids[0], doc_ids[0]]
        batch = client.get_many(batch_ids)
        assert batch == [collection.document_by_id(d).content for d in batch_ids]
        # streaming scan
        scanned = dict(client.iter_documents())
        assert scanned == {d.doc_id: d.content for d in collection}
        assert client.ping() < 5.0


def test_remote_errors_are_the_same_types(live_server):
    host, port = live_server.address
    with RlzClient(host, port) as client:
        missing = max(client.doc_ids()) + 1000
        with pytest.raises(StorageError):
            client.get(missing)
        # The connection survives a structured error frame.
        assert client.get(client.doc_ids()[0])


def test_closed_client_raises_store_closed(live_server):
    host, port = live_server.address
    client = RlzClient(host, port)
    assert client.get(client.doc_ids()[0])
    client.close()
    client.close()  # idempotent
    assert client.closed
    with pytest.raises(StoreClosedError):
        client.get(0)


def test_stats_opcode_reports_server_and_cache_counters(served_archive):
    path, base_config, _ = served_archive
    name = f"rlzs-{uuid.uuid4().hex[:12]}"
    config = dataclasses.replace(
        base_config,
        cache=CacheSpec(tier="shared", capacity=8, slot_bytes=64 * 1024, name=name),
    )
    with BackgroundServer(path, config) as server:
        host, port = server.address
        with RlzClient(host, port) as client:
            doc_id = client.doc_ids()[0]
            client.get(doc_id)
            client.get(doc_id)  # second hit comes from the shared tier
            stats = client.stats()
    assert stats["server_requests"] >= 3
    assert stats["server_connections_total"] >= 1
    # The shared-memory stats block crosses the wire: machine-wide counters.
    assert stats["cache_shared_hits"] >= 1
    assert stats["cache_shared_stores"] >= 1
    assert "cache_shared_evictions" in stats


def test_concurrent_clients_under_tight_backpressure(served_archive):
    """A max_inflight=2 gate must serialize decodes without corrupting or
    deadlocking many concurrent client threads."""
    path, base_config, collection = served_archive
    config = dataclasses.replace(base_config, serve=ServeSpec(max_inflight=2))
    contents = {d.doc_id: d.content for d in collection}
    with BackgroundServer(path, config) as server:
        host, port = server.address
        failures = []

        def session():
            try:
                with RlzClient(host, port) as client:
                    for doc_id in client.doc_ids():
                        assert client.get(doc_id) == contents[doc_id]
            except BaseException as exc:
                failures.append(exc)

        threads = [threading.Thread(target=session) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures
        stats = server.stats()
    assert stats["server_requests"] >= 8 * len(contents)
    assert stats["server_inflight_capacity"] == 2


def test_client_reconnects_after_server_restart(served_archive):
    """A pooled connection killed by a server restart is retried on a
    fresh dial — the caller never sees the blip."""
    path, config, collection = served_archive
    with BackgroundServer(path, config) as first:
        host, port = first.address
        client = RlzClient(host, port, retries=5, retry_delay=0.05)
        doc_id = client.doc_ids()[0]
        assert client.get(doc_id) == collection.document_by_id(doc_id).content
    # Server gone: the pooled connection is dead.  Restart on the same port.
    restart_config = dataclasses.replace(config, serve=ServeSpec(host=host, port=port))
    with BackgroundServer(path, restart_config):
        assert client.get(doc_id) == collection.document_by_id(doc_id).content
    client.close()


def test_client_disconnect_mid_request_leaves_server_serving(served_archive, wire):
    """A client that hangs up while its request decodes must not take the
    server (or the front) down — the next connection is served normally."""
    path, config, collection = served_archive
    with BackgroundServer(path, config) as server:
        host, port = server.address
        # Hand-roll a connection and slam it shut right after sending GET.
        from repro.serve import protocol
        from repro.serve.protocol import Opcode

        raw = wire.dial(host, port)
        doc_id = sorted(d.doc_id for d in collection)[0]
        raw.send(Opcode.GET, 1, protocol.pack_doc_id(doc_id))
        raw.close()
        # The server keeps serving new clients.
        with RlzClient(host, port) as client:
            assert client.get(doc_id) == collection.document_by_id(doc_id).content


def test_async_client_matches_async_archive_surface(served_archive):
    path, config, collection = served_archive

    async def main():
        server = RlzServer.open(path, config)
        await server.start()
        try:
            client = AsyncRlzClient(server.host, server.port)
            assert isinstance(client, AsyncArchiveView)
            async with client:
                doc_ids = await client.doc_ids()
                document = await client.get(doc_ids[0])
                assert document == collection.document_by_id(doc_ids[0]).content
                batch = await client.get_many(list(reversed(doc_ids)))
                assert batch == [
                    collection.document_by_id(d).content for d in reversed(doc_ids)
                ]
                gathered = await client.gather(doc_ids[:6] + doc_ids[:6])
                assert gathered == [
                    collection.document_by_id(d).content
                    for d in doc_ids[:6] + doc_ids[:6]
                ]
                stats = await client.stats()
                assert stats["server_requests"] >= 3
                assert await client.ping() < 5.0
                with pytest.raises(StorageError):
                    await client.get(max(doc_ids) + 999)
            assert client.closed
            with pytest.raises(StoreClosedError):
                await client.get(doc_ids[0])
        finally:
            await server.close()

    asyncio.run(main())


def test_client_option_validation():
    with pytest.raises(ProtocolError):
        RlzClient("127.0.0.1", 1, pool_size=0)
    with pytest.raises(ProtocolError):
        RlzClient("127.0.0.1", 1, retries=-1)
    with pytest.raises(ProtocolError):
        AsyncRlzClient("127.0.0.1", 1, retries=-1)
    # The async client multiplexes one connection: it has no pool to size.
    with pytest.raises(TypeError):
        AsyncRlzClient("127.0.0.1", 1, pool_size=2)


def test_connection_refused_raises_after_retries():
    # Grab a port nothing listens on.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    client = RlzClient("127.0.0.1", port, retries=1, retry_delay=0.01)
    with pytest.raises(OSError):
        client.get(0)
    client.close()


def test_server_refuses_double_start(served_archive):
    path, config, _ = served_archive

    async def main():
        server = RlzServer.open(path, config)
        await server.start()
        try:
            with pytest.raises(ProtocolError):
                await server.start()
        finally:
            await server.close()
        # close is idempotent and closes the owned front.
        await server.close()
        assert server.closed
        assert server.front.closed

    asyncio.run(main())


def test_shutdown_is_prompt_with_idle_pooled_connections(served_archive):
    """An idle pooled client connection (parked waiting for its next
    request) must not hold graceful shutdown for the drain window — only
    connections actively serving a request are drained."""
    import time

    path, config, _ = served_archive
    config = dataclasses.replace(config, serve=ServeSpec(drain_seconds=30.0))
    server = BackgroundServer(path, config)
    host, port = server.start()
    client = RlzClient(host, port)
    client.get(client.doc_ids()[0])  # leaves one idle connection in the pool
    start = time.perf_counter()
    server.stop()
    elapsed = time.perf_counter() - start
    client.close()
    assert elapsed < 5.0, f"shutdown stalled {elapsed:.1f}s on an idle connection"


def test_clients_constructed_outside_a_loop_work(served_archive):
    """Constructing RlzServer and AsyncRlzClient before any event loop
    exists must not bind asyncio primitives to the wrong loop (their
    semaphore/lock are created lazily inside the running loop)."""
    path, config, collection = served_archive
    # Both constructed with no running event loop:
    server = RlzServer.open(path, config)
    client = AsyncRlzClient("127.0.0.1", 0)

    async def run():
        await server.start()
        try:
            # The ephemeral port is only known post-start.
            client._host, client._port = server.host, server.port
            doc_ids = await client.doc_ids()
            document = await client.get(doc_ids[0])
            assert document == collection.document_by_id(doc_ids[0]).content
            await client.gather(doc_ids[:4])  # exercises the mux lock
            await client.close()
        finally:
            await server.close()

    asyncio.run(run())


def test_background_server_stats_snapshot(live_server):
    host, port = live_server.address
    with RlzClient(host, port) as client:
        client.get(client.doc_ids()[0])
        live = live_server.stats()
    assert live["server_requests"] >= 2
    final = live_server.stats()
    assert final["server_requests"] >= live["server_requests"]


@pytest.mark.parametrize("kernel_on", [True, False])
def test_health_and_stats_report_the_decode_kernel(
    served_archive, monkeypatch, capsys, kernel_on
):
    from repro.cli import main
    from repro.core import native

    if kernel_on and not native.available():
        pytest.skip("the native decode kernel is unavailable (no C compiler?)")
    if not kernel_on:
        monkeypatch.setattr(native, "_kernel", None)
    expected = "native" if kernel_on else "python"
    path, config, collection = served_archive
    with BackgroundServer(path, config) as server:
        host, port = server.address
        with RlzClient(host, port) as client:
            (before,) = client.health().values()  # archive not opened yet
            doc_id = client.doc_ids()[0]
            assert client.get(doc_id) == collection.document_by_id(doc_id).content
            (after,) = client.health().values()
        assert main(["stats", "--connect", f"{host}:{port}"]) == 0
    assert before["decode_kernel"] == after["decode_kernel"] == expected
    assert capsys.readouterr().out.rstrip().endswith(f"decode_kernel={expected}")
