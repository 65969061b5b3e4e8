"""Wire-level edge cases: malformed clients, malformed servers, shutdowns.

The server must survive (and cleanly reject) every way a client can
misbehave on the socket, and the client must fail loudly — never hang,
never mis-parse — when the peer violates the protocol.  A peer speaking
any other protocol version, or an older framing, fails the handshake with
a typed :class:`~repro.errors.ProtocolError`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import socket
import struct
import threading
import time

import pytest

from repro import errors
from repro.api import ServeSpec
from repro.errors import ProtocolError
from repro.serve import AsyncRlzClient, BackgroundServer, RlzClient, RlzServer, protocol
from repro.serve.protocol import Opcode


@pytest.fixture()
def live_server(served_archive):
    path, config, _ = served_archive
    config = dataclasses.replace(
        config, serve=ServeSpec(max_frame_bytes=256 * 1024, drain_seconds=0.2)
    )
    with BackgroundServer(path, config) as server:
        yield server


def _assert_still_serving(server, collection) -> None:
    host, port = server.address
    with RlzClient(host, port) as client:
        doc_id = client.doc_ids()[0]
        assert client.get(doc_id) == collection.document_by_id(doc_id).content


# ----------------------------------------------------------------------
# Server-side edge cases (misbehaving client)
# ----------------------------------------------------------------------
def test_server_survives_truncated_frame(live_server, served_archive, wire):
    _, _, collection = served_archive
    host, port = live_server.address
    raw = wire.dial(host, port)
    # Announce a 1000-byte frame, send 3 bytes, hang up.
    raw.send_bytes(struct.pack("!I", 1000) + b"\x03ab")
    raw.close()
    # The server must shrug and keep serving fresh connections.
    _assert_still_serving(live_server, collection)


def test_server_rejects_oversized_frame(live_server, wire):
    host, port = live_server.address
    raw = wire.dial(host, port)
    # Claim a frame bigger than the server's max_frame_bytes (256 KiB).
    raw.send_bytes(struct.pack("!I", 1 << 20))
    opcode, request_id, payload = raw.read()
    assert (opcode, request_id) == (Opcode.R_ERROR, 0)
    with pytest.raises(ProtocolError, match="oversized"):
        protocol.raise_error_frame(payload)
    # The connection is closed afterwards: the framing is untrusted.
    raw.assert_closed()
    raw.close()


def _rejected_handshake(raw, match: str) -> None:
    """The server answers a handshake ``R_ERROR`` (reserved id 0) carrying
    a ProtocolError, then closes the connection."""
    opcode, request_id, payload = raw.read()
    assert (opcode, request_id) == (Opcode.R_ERROR, 0)
    with pytest.raises(ProtocolError, match=match):
        protocol.raise_error_frame(payload)
    raw.assert_closed()
    raw.close()


def test_server_rejects_version_mismatch(live_server, wire):
    host, port = live_server.address
    raw = wire.connect(host, port)
    raw.send(Opcode.HELLO, 0, protocol.pack_hello(0))
    opcode, request_id, payload = raw.read()
    assert opcode == Opcode.R_ERROR
    with pytest.raises(ProtocolError, match="version mismatch"):
        protocol.raise_error_frame(payload)
    raw.close()


@pytest.mark.parametrize("version", [4, 6])
def test_server_rejects_neighbouring_versions(
    live_server, served_archive, wire, version
):
    # Exactly one version is spoken: the one before and the one after both
    # fail the handshake, and the server keeps serving the next client.
    _, _, collection = served_archive
    host, port = live_server.address
    raw = wire.connect(host, port)
    raw.send(Opcode.HELLO, 0, protocol.pack_hello(version))
    _rejected_handshake(raw, "version mismatch")
    _assert_still_serving(live_server, collection)


@pytest.mark.parametrize(
    "hello_body",
    [
        # A version-1 client: length | HELLO | magic | version 1.
        bytes([Opcode.HELLO]) + protocol.MAGIC + bytes([1]),
        # A version-2..4 client: the same framing plus an archive name.
        bytes([Opcode.HELLO]) + protocol.MAGIC + bytes([4]) + b"\x00\x00",
    ],
    ids=["v1-hello", "v4-hello"],
)
def test_server_rejects_legacy_framed_hello(
    live_server, served_archive, wire, hello_body
):
    _, _, collection = served_archive
    host, port = live_server.address
    raw = wire.connect(host, port)
    raw.send_bytes(struct.pack("!I", len(hello_body)) + hello_body)
    _rejected_handshake(raw, "malformed HELLO frame")
    _assert_still_serving(live_server, collection)


def test_server_rejects_bad_magic(live_server, wire):
    host, port = live_server.address
    raw = wire.connect(host, port)
    raw.send(Opcode.HELLO, 0, b"HTTP" + bytes([protocol.PROTOCOL_VERSION]) + b"\x00\x00")
    opcode, request_id, payload = raw.read()
    assert opcode == Opcode.R_ERROR
    with pytest.raises(ProtocolError, match="magic"):
        protocol.raise_error_frame(payload)
    raw.close()


def test_server_rejects_request_before_hello(live_server, wire):
    host, port = live_server.address
    raw = wire.connect(host, port)
    raw.send(Opcode.GET, 1, protocol.pack_doc_id(0))
    opcode, request_id, payload = raw.read()
    assert opcode == Opcode.R_ERROR
    with pytest.raises(ProtocolError, match="expected HELLO"):
        protocol.raise_error_frame(payload)
    raw.close()


def test_server_rejects_unknown_opcode(live_server, wire):
    host, port = live_server.address
    raw = wire.dial(host, port)
    raw.send(0x42, 1)
    opcode, request_id, payload = raw.read()
    assert (opcode, request_id) == (Opcode.R_ERROR, 1)
    with pytest.raises(ProtocolError, match="unknown request opcode"):
        protocol.raise_error_frame(payload)
    raw.close()


def test_server_maps_malformed_payload_to_protocol_error(live_server, wire):
    host, port = live_server.address
    raw = wire.dial(host, port)
    raw.send(Opcode.GET, 1, b"\x01")  # not 8 bytes
    opcode, request_id, payload = raw.read()
    assert (opcode, request_id) == (Opcode.R_ERROR, 1)
    with pytest.raises(ProtocolError, match="malformed doc-id"):
        protocol.raise_error_frame(payload)
    raw.close()


# ----------------------------------------------------------------------
# Error round-tripping end-to-end (server raises -> client re-raises)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "error_class",
    sorted(protocol.ERROR_CODES, key=lambda cls: cls.__name__),
    ids=lambda cls: cls.__name__,
)
def test_every_error_type_roundtrips_over_the_socket(served_archive, error_class):
    path, config, _ = served_archive

    async def main():
        server = RlzServer.open(path, config)
        await server.start()
        try:
            async def raising(doc_id):
                raise error_class(f"server-side {error_class.__name__}")

            server.front.get = raising  # the GET handler awaits this
            client_error = None
            client = AsyncRlzClient(server.host, server.port)
            try:
                await client.get(0)
            except errors.ReproError as exc:
                client_error = exc
            finally:
                await client.close()
            assert client_error is not None
            assert type(client_error) is error_class
            assert f"server-side {error_class.__name__}" in str(client_error)
        finally:
            await server.close()

    asyncio.run(main())


# ----------------------------------------------------------------------
# Shutdown mid-request
# ----------------------------------------------------------------------
def test_server_shutdown_mid_request(served_archive):
    """Graceful close with a short drain window: an in-flight slow request
    is cancelled, the client sees a connection-level failure (not a hang),
    and the server closes cleanly."""
    path, config, _ = served_archive
    config = dataclasses.replace(config, serve=ServeSpec(drain_seconds=0.05))
    server = BackgroundServer(path, config)
    host, port = server.start()
    try:
        front = server._server.front
        real_get = front.archive.get
        started = threading.Event()

        def slow_get(doc_id):
            started.set()
            time.sleep(1.0)
            return real_get(doc_id)

        front._archive.get = slow_get
        client = RlzClient(host, port, retries=0, timeout=10)
        doc_id = client.doc_ids()[0]
        outcome = []

        def request():
            try:
                outcome.append(client.get(doc_id))
            except BaseException as exc:
                outcome.append(exc)

        thread = threading.Thread(target=request)
        thread.start()
        assert started.wait(timeout=10)  # the decode is in flight
    finally:
        stats = server.stop()  # drain window elapses, request cancelled
    thread.join(timeout=10)
    assert not thread.is_alive()
    client.close()
    assert len(outcome) == 1
    # The client must observe a failure (connection dropped or an error
    # frame), never a silent wrong answer.
    assert isinstance(outcome[0], (ConnectionError, OSError, errors.ReproError))
    assert stats["server_connections_total"] >= 1


# ----------------------------------------------------------------------
# Client-side edge cases (misbehaving server)
# ----------------------------------------------------------------------
class _FakeServer:
    """A TCP peer that answers the HELLO with ``hello_reply`` (a correct
    ``R_HELLO`` by default), then plays ``script`` after one request.

    ``client_closed`` is set once the client hangs up on it.
    """

    def __init__(
        self,
        wire,
        script: bytes = b"",
        close_after: bool = True,
        hello_reply: bytes = protocol.encode_reply(
            Opcode.R_HELLO, 0, protocol.pack_hello_reply()
        ),
    ) -> None:
        self._wire = wire
        self._script = script
        self._close_after = close_after
        self._hello_reply = hello_reply
        self.client_closed = threading.Event()
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(1)
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        conn, _ = self._sock.accept()
        peer = self._wire(conn)
        try:
            conn.settimeout(10)
            assert peer.read_request()[0] == Opcode.HELLO
            peer.send_bytes(self._hello_reply)
            # Wait for one request frame (or the client hanging up on a
            # handshake it rejected), then play the script.
            try:
                peer.read_request()
            except ConnectionError:
                self.client_closed.set()
                return
            peer.send_bytes(self._script)
            if self._close_after:
                conn.shutdown(socket.SHUT_WR)
                time.sleep(0.1)
        except (ConnectionError, OSError):
            pass
        finally:
            conn.close()
            self._sock.close()

    def join(self) -> None:
        self._thread.join(timeout=10)


def test_client_rejects_truncated_response(wire):
    fake = _FakeServer(wire, struct.pack("!I", 500) + b"\x83abc")  # 500 claimed, 4 sent
    client = RlzClient("127.0.0.1", fake.port, retries=0, timeout=10)
    with pytest.raises((ConnectionError, OSError)):
        client.get(0)
    client.close()
    fake.join()


def test_client_rejects_oversized_response(wire):
    fake = _FakeServer(wire, struct.pack("!I", 1 << 30))
    client = RlzClient(
        "127.0.0.1", fake.port, retries=0, timeout=10, max_frame_bytes=1 << 20
    )
    with pytest.raises(ProtocolError, match="oversized"):
        client.get(0)
    client.close()
    fake.join()


def test_client_rejects_unexpected_reply_opcode(wire):
    # The first request on a fresh connection carries request id 1.
    fake = _FakeServer(wire, protocol.encode_reply(Opcode.R_PONG, 1))
    client = RlzClient("127.0.0.1", fake.port, retries=0, timeout=10)
    with pytest.raises(ProtocolError, match="expected r_doc"):
        client.get(0)
    client.close()
    fake.join()


def test_client_rejects_server_version_mismatch(wire):
    fake = _FakeServer(
        wire, hello_reply=protocol.encode_reply(Opcode.R_HELLO, 0, bytes([42]))
    )
    client = RlzClient("127.0.0.1", fake.port, retries=0, timeout=10)
    with pytest.raises(ProtocolError, match="version mismatch"):
        client.get(0)
    client.close()
    fake.join()


_OLD_SERVER_HELLOS = {
    # R_HELLO selecting version 4, in the current reply framing...
    "v4-reply": protocol.encode_reply(Opcode.R_HELLO, 0, bytes([4])),
    # ...and in the version-1 handshake framing a pre-v5 server used.
    "v1-framed-reply": struct.pack("!I", 2) + bytes([Opcode.R_HELLO, 4]),
}


@pytest.mark.parametrize("hello_reply", _OLD_SERVER_HELLOS.values(), ids=_OLD_SERVER_HELLOS)
def test_sync_client_rejects_an_old_server(wire, hello_reply):
    fake = _FakeServer(wire, hello_reply=hello_reply)
    client = RlzClient("127.0.0.1", fake.port, retries=0, timeout=10)
    started = time.monotonic()
    with pytest.raises(ProtocolError):
        client.get(0)
    assert time.monotonic() - started < 10
    # The client hung up instead of sending a request.
    assert fake.client_closed.wait(timeout=10)
    client.close()
    fake.join()


@pytest.mark.parametrize("hello_reply", _OLD_SERVER_HELLOS.values(), ids=_OLD_SERVER_HELLOS)
def test_async_client_rejects_an_old_server(wire, hello_reply):
    fake = _FakeServer(wire, hello_reply=hello_reply)

    async def main():
        client = AsyncRlzClient("127.0.0.1", fake.port, retries=0, timeout=10)
        try:
            with pytest.raises(ProtocolError):
                await asyncio.wait_for(client.get(0), 10)
        finally:
            await client.close()

    asyncio.run(main())
    assert fake.client_closed.wait(timeout=10)
    fake.join()


def test_connection_level_error_reaches_the_waiting_request(wire):
    """An ``R_ERROR`` under the reserved request id 0 is the server's
    complaint about the connection: the request waiting on it raises that
    typed error under both drivers (the async reader hands the frame to
    every waiter's classifier)."""
    error = protocol.pack_error_for(ProtocolError("frame too large"))
    script = protocol.encode_reply(Opcode.R_ERROR, 0, error)

    fake = _FakeServer(wire, script)
    client = RlzClient("127.0.0.1", fake.port, retries=0, timeout=10)
    with pytest.raises(ProtocolError, match="frame too large"):
        client.get(0)
    client.close()
    fake.join()

    fake = _FakeServer(wire, script)

    async def main():
        client = AsyncRlzClient("127.0.0.1", fake.port, retries=0, timeout=10)
        try:
            with pytest.raises(ProtocolError, match="frame too large"):
                await asyncio.wait_for(client.get(0), 10)
        finally:
            await client.close()

    asyncio.run(main())
    fake.join()
