"""Shared fixtures for the network-serving tests: one built archive and a
raw-socket speaker of the wire framing."""

from __future__ import annotations

import socket
from typing import Tuple

import pytest

from repro.api import ArchiveConfig, CacheSpec, DictionarySpec, EncodingSpec, RlzArchive
from repro.serve import protocol
from repro.serve.protocol import Opcode


def make_config(cache: CacheSpec | None = None) -> ArchiveConfig:
    return ArchiveConfig(
        dictionary=DictionarySpec(size=32 * 1024, sample_size=512),
        encoding=EncodingSpec(scheme="ZV"),
        cache=cache or CacheSpec(),
    )


@pytest.fixture(scope="module")
def served_archive(tmp_path_factory, gov_small):
    """A built archive (path, config, collection) shared by a test module."""
    path = tmp_path_factory.mktemp("serve") / "served.rlz"
    config = make_config()
    RlzArchive.build(gov_small, config, path).close()
    return path, config, gov_small


class RawWire:
    """A bare socket speaking the wire framing.

    Tests use it to send what the real clients never would (malformed,
    truncated, duplicate-id or pre-HELLO frames) and to read the frames
    the clients hide; a fake server wraps its accepted socket in one to
    play the server side.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock

    @classmethod
    def connect(cls, host: str, port: int, timeout: float = 10.0) -> "RawWire":
        """A connection that has not said HELLO yet."""
        return cls(socket.create_connection((host, port), timeout=timeout))

    @classmethod
    def dial(
        cls,
        host: str,
        port: int,
        archive: str = "",
        version: int = protocol.PROTOCOL_VERSION,
    ) -> "RawWire":
        """Connect and handshake; a handshake ``R_ERROR`` is re-raised as
        the typed error it carries."""
        wire = cls.connect(host, port)
        wire.send(Opcode.HELLO, 0, protocol.pack_hello(version, archive))
        opcode, request_id, payload = wire.read()
        if opcode == Opcode.R_ERROR:
            wire.close()
            protocol.raise_error_frame(payload)
        assert (opcode, request_id) == (Opcode.R_HELLO, 0)
        assert protocol.unpack_hello_reply(payload) == protocol.PROTOCOL_VERSION
        return wire

    def send(
        self, opcode: int, request_id: int, payload: bytes = b"", deadline_ms: int = 0
    ) -> None:
        self.sock.sendall(
            protocol.encode_request(opcode, request_id, deadline_ms, payload)
        )

    def read(self) -> Tuple[int, int, bytes]:
        """One reply frame: ``(opcode, request_id, payload)``."""
        return protocol.split_reply(self._read_body())

    def read_request(self) -> Tuple[int, int, int, bytes]:
        """One request frame (the fake-server side):
        ``(opcode, request_id, deadline_ms, payload)``."""
        return protocol.split_request(self._read_body())

    def send_bytes(self, data: bytes) -> None:
        self.sock.sendall(data)

    def _recv_exact(self, count: int) -> bytes:
        chunks = []
        while count:
            chunk = self.sock.recv(count)
            if not chunk:
                raise ConnectionError("connection closed mid-frame")
            chunks.append(chunk)
            count -= len(chunk)
        return b"".join(chunks)

    def _read_body(self) -> bytes:
        return self._recv_exact(protocol.frame_length(self._recv_exact(4)))

    def assert_closed(self) -> None:
        """The peer has closed its side (FIN or reset) within 5 s."""
        self.sock.settimeout(5)
        try:
            assert self.sock.recv(1) == b""
        except ConnectionError:
            pass  # reset instead of FIN: also closed

    def close(self) -> None:
        self.sock.close()


@pytest.fixture()
def wire():
    """The :class:`RawWire` helper (``wire.dial(host, port)`` etc.)."""
    return RawWire
