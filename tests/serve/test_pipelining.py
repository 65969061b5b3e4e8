"""Pipelining edge cases: out-of-order replies, routing, SCAN, backpressure.

What request ids buy — out-of-order replies, the archive name in HELLO,
the SCAN bulk opcode and the R_BUSY load-shedding hint — and every way
those can go wrong: interleaved replies, duplicate ids, unknown archive
names, a client vanishing mid-pipeline.
"""

from __future__ import annotations

import asyncio
import dataclasses
import struct
import threading
import time

import pytest

from repro.api import ServeSpec
from repro.errors import ConfigurationError, ProtocolError, StorageError
from repro.serve import BackgroundServer, RlzClient, protocol
from repro.serve.protocol import Opcode


@pytest.fixture()
def live_server(served_archive):
    path, config, _ = served_archive
    with BackgroundServer(path, config) as server:
        yield server


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
def test_unknown_archive_name_is_rejected_with_configuration_error(live_server, wire):
    host, port = live_server.address
    with pytest.raises(ConfigurationError, match="unknown archive"):
        wire.dial(host, port, archive="no-such-archive")
    # ...and through the real client's dial path too.
    client = RlzClient(host, port, archive="still-not-there", retries=0)
    with pytest.raises(ConfigurationError, match="unknown archive"):
        client.get(0)
    client.close()


# ----------------------------------------------------------------------
# Pipelining
# ----------------------------------------------------------------------
def test_out_of_order_replies_interleave_on_one_connection(served_archive, wire):
    """A slow request must not block a later fast one: the later reply
    arrives first, and both carry the right request id."""
    path, config, collection = served_archive
    server = BackgroundServer(path, config)
    host, port = server.start()
    try:
        front = server._server.front
        doc_ids = sorted(d.doc_id for d in collection)
        slow_id, fast_id = doc_ids[0], doc_ids[1]
        real_get = front.get

        async def slow_get(doc_id):
            if doc_id == slow_id:
                await asyncio.sleep(0.4)
            return await real_get(doc_id)

        front.get = slow_get
        raw = wire.dial(host, port)
        raw.send(Opcode.GET, 11, protocol.pack_doc_id(slow_id))
        raw.send(Opcode.GET, 22, protocol.pack_doc_id(fast_id))
        replies = [raw.read() for _ in range(2)]
        raw.close()
        assert [request_id for _, request_id, _ in replies] == [22, 11]
        by_id = {request_id: payload for _, request_id, payload in replies}
        assert by_id[11] == collection.document_by_id(slow_id).content
        assert by_id[22] == collection.document_by_id(fast_id).content
        assert all(opcode == Opcode.R_DOC for opcode, _, _ in replies)
    finally:
        server.stop()


def test_duplicate_request_id_closes_the_connection(served_archive, wire):
    path, config, collection = served_archive
    server = BackgroundServer(path, config)
    host, port = server.start()
    try:
        front = server._server.front
        real_get = front.get
        release = asyncio.Event()

        async def stuck_get(doc_id):
            await release.wait()
            return await real_get(doc_id)

        front.get = stuck_get
        doc_id = next(iter(collection)).doc_id
        raw = wire.dial(host, port)
        # Id 7 is parked in the stuck decode; reusing it while it is in
        # flight makes the correlation ambiguous.
        raw.send(Opcode.GET, 7, protocol.pack_doc_id(doc_id))
        raw.send(Opcode.PING, 7)
        opcode, request_id, payload = raw.read()
        assert (opcode, request_id) == (Opcode.R_ERROR, 7)
        with pytest.raises(ProtocolError, match="duplicate request id"):
            protocol.raise_error_frame(payload)
        # The connection is closed afterwards.
        raw.assert_closed()
        raw.close()
        server._loop.call_soon_threadsafe(release.set)
        front.get = real_get
        # A reused id is fine once the first request finished.
        raw = wire.dial(host, port)
        raw.send(Opcode.PING, 9)
        assert raw.read()[0] == Opcode.R_PONG
        raw.send(Opcode.PING, 9)
        assert raw.read()[0] == Opcode.R_PONG
        raw.close()
    finally:
        server.stop()


def test_pipelined_get_matches_sequential_and_handles_duplicates(
    live_server, served_archive
):
    _, _, collection = served_archive
    host, port = live_server.address
    expected = {d.doc_id: d.content for d in collection}
    ids = sorted(expected)
    request = list(reversed(ids)) + ids[:5] + [ids[0]] * 3
    with RlzClient(host, port) as client:
        assert client.pipelined_get(request) == [expected[i] for i in request]
        assert client.pipelined_get(request, window=2) == [
            expected[i] for i in request
        ]
        assert client.pipelined_get([]) == []
        with pytest.raises(ProtocolError, match="window"):
            client.pipelined_get(ids, window=0)


def test_pipelined_get_raises_the_archive_error(live_server, served_archive):
    _, _, collection = served_archive
    host, port = live_server.address
    ids = sorted(d.doc_id for d in collection)
    with RlzClient(host, port) as client:
        with pytest.raises(StorageError):
            client.pipelined_get([ids[0], max(ids) + 4242, ids[1]])


def test_client_disconnect_mid_pipeline_leaves_server_serving(
    live_server, served_archive, wire
):
    _, _, collection = served_archive
    host, port = live_server.address
    ids = sorted(d.doc_id for d in collection)
    raw = wire.dial(host, port)
    # Queue a burst of requests and vanish without reading a single reply.
    for request_id, doc_id in enumerate(ids, start=1):
        raw.send(Opcode.GET, request_id, protocol.pack_doc_id(doc_id))
    raw.close()
    # The server must shrug: fresh connections serve correct bytes.
    with RlzClient(host, port) as client:
        assert client.get(ids[0]) == collection.document_by_id(ids[0]).content
        assert client.pipelined_get(ids) == [
            collection.document_by_id(i).content for i in ids
        ]


def test_server_shutdown_mid_pipeline_fails_loudly_not_silently(served_archive):
    path, config, collection = served_archive
    config = dataclasses.replace(config, serve=ServeSpec(drain_seconds=0.05))
    server = BackgroundServer(path, config)
    host, port = server.start()
    ids = sorted(d.doc_id for d in collection)
    client = RlzClient(host, port, retries=0, timeout=10)
    outcome = []

    front = server._server.front
    real_get = front.get
    started = threading.Event()

    async def slow_get(doc_id):
        started.set()
        await asyncio.sleep(1.0)
        return await real_get(doc_id)

    front.get = slow_get

    def request():
        try:
            outcome.append(client.pipelined_get(ids[:4]))
        except BaseException as exc:
            outcome.append(exc)

    thread = threading.Thread(target=request)
    thread.start()
    assert started.wait(timeout=10)
    server.stop()
    thread.join(timeout=10)
    assert not thread.is_alive()
    client.close()
    assert len(outcome) == 1
    assert isinstance(outcome[0], (ConnectionError, OSError, ProtocolError))


# ----------------------------------------------------------------------
# SCAN
# ----------------------------------------------------------------------
def test_scan_streams_everything_byte_identical(live_server, served_archive):
    _, _, collection = served_archive
    host, port = live_server.address
    expected = {d.doc_id: d.content for d in collection}
    with RlzClient(host, port) as client:
        assert dict(client.scan()) == expected
        # Tiny chunks exercise the chunk boundaries.
        assert dict(client.scan(chunk_docs=1)) == expected
        assert dict(client.scan(chunk_docs=3)) == expected


def test_scan_subset_preserves_requested_order(live_server, served_archive):
    _, _, collection = served_archive
    host, port = live_server.address
    expected = {d.doc_id: d.content for d in collection}
    ids = sorted(expected)
    subset = list(reversed(ids[:7])) + [ids[0]]
    with RlzClient(host, port) as client:
        items = list(client.scan(subset, chunk_docs=2))
        assert [doc_id for doc_id, _ in items] == subset
        assert all(content == expected[doc_id] for doc_id, content in items)


def test_scan_unknown_doc_raises_storage_error(live_server, served_archive):
    _, _, collection = served_archive
    host, port = live_server.address
    ids = sorted(d.doc_id for d in collection)
    with RlzClient(host, port) as client:
        with pytest.raises(StorageError):
            list(client.scan([ids[0], max(ids) + 999]))
        # The client recovers for the next call.
        assert client.get(ids[0]) == collection.document_by_id(ids[0]).content


def test_iter_documents_rides_scan(live_server, served_archive):
    _, _, collection = served_archive
    host, port = live_server.address
    with RlzClient(host, port) as client:
        assert dict(client.iter_documents()) == {
            d.doc_id: d.content for d in collection
        }
    stats = live_server.stats()
    # One SCAN request streamed everything, not one request per document.
    assert stats.get("server_requests", 0) >= 1


# ----------------------------------------------------------------------
# R_BUSY backpressure
# ----------------------------------------------------------------------
def test_saturated_gate_sheds_requests_with_r_busy(served_archive, wire):
    path, config, collection = served_archive
    config = dataclasses.replace(
        config, serve=ServeSpec(max_inflight=1, max_pipeline=64)
    )
    server = BackgroundServer(path, config)
    host, port = server.start()
    try:
        front = server._server.front
        real_get = front.get
        release = asyncio.Event()

        async def stuck_get(doc_id):
            await release.wait()
            return await real_get(doc_id)

        front.get = stuck_get
        doc_id = next(iter(collection)).doc_id
        raw = wire.dial(host, port)
        # One request occupies the gate, one waits, the rest must be shed.
        for request_id in range(1, 9):
            raw.send(Opcode.GET, request_id, protocol.pack_doc_id(doc_id))
        busy_ids = set()
        for _ in range(6):
            opcode, request_id, _ = raw.read()
            assert opcode == Opcode.R_BUSY
            busy_ids.add(request_id)
        assert len(busy_ids) == 6
        server._loop.call_soon_threadsafe(release.set)
        docs = [raw.read() for _ in range(2)]
        assert {opcode for opcode, _, _ in docs} == {Opcode.R_DOC}
        raw.close()
        stats = server.stats()
        assert stats["server_busy_rejections"] >= 6
    finally:
        server.stop()


def test_client_retries_r_busy_until_served(served_archive):
    path, config, collection = served_archive
    config = dataclasses.replace(
        config, serve=ServeSpec(max_inflight=1, max_pipeline=256)
    )
    expected = {d.doc_id: d.content for d in collection}
    ids = sorted(expected)
    with BackgroundServer(path, config) as server:
        host, port = server.address
        front = server._server.front
        real_get = front.get

        async def slow_get(doc_id):
            await asyncio.sleep(0.002)
            return await real_get(doc_id)

        front.get = slow_get
        # A wide pipelined window against a one-slot gate: some requests
        # are shed with R_BUSY, the client retries them, every byte lands.
        with RlzClient(host, port, retry_delay=0.01, busy_retries=64) as client:
            request = ids * 3
            assert client.pipelined_get(request, window=32) == [
                expected[i] for i in request
            ]
            assert client.busy_hints > 0


# ----------------------------------------------------------------------
# Connection-level errors and drain behaviour (review regressions)
# ----------------------------------------------------------------------
def test_post_handshake_frame_error_carries_the_reserved_id(served_archive, wire):
    """A frame-level violation after the handshake comes back as a reply
    frame with the reserved request id 0 (no single request owns it)."""
    path, config, _ = served_archive
    config = dataclasses.replace(config, serve=ServeSpec(max_frame_bytes=64 * 1024))
    with BackgroundServer(path, config) as server:
        host, port = server.address
        raw = wire.dial(host, port)
        raw.send_bytes(struct.pack("!I", 1 << 20))  # oversized frame claim
        opcode, request_id, payload = raw.read()
        assert (opcode, request_id) == (Opcode.R_ERROR, 0)
        with pytest.raises(ProtocolError, match="oversized"):
            protocol.raise_error_frame(payload)
        raw.close()
        # ...and the real client surfaces the server's actual complaint.
        client = RlzClient(host, port, retries=0, max_frame_bytes=1 << 22)
        with pytest.raises(ProtocolError, match="oversized"):
            client.get_many(list(range(100_000)))  # frame > server's limit
        client.close()


def test_graceful_close_is_prompt_once_requests_drain(served_archive, wire):
    """close() must wait on the in-flight *requests*, not on the pipelined
    connection task (which is parked reading and never finishes alone):
    with a 10s drain window and a 0.2s request, shutdown is sub-second."""
    path, config, collection = served_archive
    config = dataclasses.replace(config, serve=ServeSpec(drain_seconds=10.0))
    server = BackgroundServer(path, config)
    host, port = server.start()
    doc_id = next(iter(collection)).doc_id
    expected = collection.document_by_id(doc_id).content
    front = server._server.front
    real_get = front.get
    started = threading.Event()

    async def slow_get(requested):
        started.set()
        await asyncio.sleep(0.2)
        return await real_get(requested)

    front.get = slow_get
    raw = wire.dial(host, port)
    raw.send(Opcode.GET, 5, protocol.pack_doc_id(doc_id))
    assert started.wait(timeout=10)
    start = time.monotonic()
    server.stop()  # drains the 0.2s request, not the whole 10s window
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, elapsed
    # The in-flight request was answered before the connection closed.
    opcode, request_id, payload = raw.read()
    assert (opcode, request_id, payload) == (Opcode.R_DOC, 5, expected)
    raw.close()
