"""Unit tests for the wire protocol: framing, codecs, error mapping."""

from __future__ import annotations

import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro import errors
from repro.errors import ProtocolError
from repro.serve import protocol
from repro.serve.protocol import Opcode


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def test_frame_roundtrip():
    frame = protocol.encode_request(Opcode.GET, 9, 250, b"payload")
    length = protocol.frame_length(frame[:4])
    assert length == len(frame) - 4
    assert protocol.split_request(frame[4:]) == (Opcode.GET, 9, 250, b"payload")


def test_reply_frame_roundtrip():
    frame = protocol.encode_reply(Opcode.R_DOC, 0xDEADBEEF, b"payload")
    length = protocol.frame_length(frame[:4])
    assert length == len(frame) - 4
    assert protocol.split_reply(frame[4:]) == (Opcode.R_DOC, 0xDEADBEEF, b"payload")


def test_frame_bytes_are_pinned():
    """Post-handshake frames keep exactly the bytes protocol version 5
    has always put on the wire (length, opcode, id, deadline, payload,
    CRC32)."""
    get = protocol.encode_request(Opcode.GET, 1, 250, protocol.pack_doc_id(7))
    assert get.hex() == "000000150300000001000000fa0000000000000007da5faf1b"
    doc = protocol.encode_reply(Opcode.R_DOC, 1, b"<html>rlz</html>")
    assert doc.hex() == (
        "0000001983000000013c68746d6c3e726c7a3c2f68746d6c3e50a17196"
    )


def test_frame_length_rejects_truncated_prefix():
    with pytest.raises(ProtocolError, match="truncated"):
        protocol.frame_length(b"\x00\x00")


def test_frame_length_rejects_empty_body():
    with pytest.raises(ProtocolError, match="zero-length"):
        protocol.frame_length(b"\x00\x00\x00\x00")


def test_frame_length_rejects_oversized():
    frame = protocol.encode_request(Opcode.GET, 1, 0, b"x" * 100)
    with pytest.raises(ProtocolError, match="oversized"):
        protocol.frame_length(frame[:4], max_frame_bytes=50)


def test_split_frame_rejects_empty():
    with pytest.raises(ProtocolError):
        protocol.split_request(b"")
    with pytest.raises(ProtocolError):
        protocol.split_reply(b"")


def test_split_rejects_short_body():
    # A valid checksum over too few header bytes.
    short = b"\x03\x00"
    body = short + zlib.crc32(short).to_bytes(4, "big")
    with pytest.raises(ProtocolError, match="malformed request frame"):
        protocol.split_request(body)
    with pytest.raises(ProtocolError, match="malformed reply frame"):
        protocol.split_reply(body)


def test_split_rejects_a_damaged_body():
    frame = bytearray(protocol.encode_reply(Opcode.R_DOC, 1, b"payload"))
    frame[-6] ^= 0x01
    with pytest.raises(ProtocolError, match="CRC32"):
        protocol.split_reply(bytes(frame[4:]))


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64))
def test_frame_parsers_raise_only_protocol_errors(data):
    """Untrusted bytes never escape as struct.error or IndexError."""
    for parse in (
        protocol.frame_length,
        protocol.split_request,
        protocol.split_reply,
        protocol.unpack_hello,
    ):
        try:
            parse(data)
        except ProtocolError:
            pass


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=48))
def test_frame_parsers_reject_checksummed_garbage_with_protocol_errors(content):
    """Bodies that pass the CRC check still parse or raise ProtocolError."""
    body = content + zlib.crc32(content).to_bytes(4, "big")
    for parse in (protocol.split_request, protocol.split_reply):
        try:
            parse(body)
        except ProtocolError:
            pass


# ----------------------------------------------------------------------
# Handshake
# ----------------------------------------------------------------------
def test_hello_roundtrip():
    assert protocol.unpack_hello(protocol.pack_hello()) == (
        protocol.PROTOCOL_VERSION,
        "",
    )
    assert protocol.unpack_hello(protocol.pack_hello(archive="wiki")) == (
        protocol.PROTOCOL_VERSION,
        "wiki",
    )
    assert protocol.unpack_hello_reply(protocol.pack_hello_reply(1)) == 1


def test_hello_requires_the_archive_name_field():
    # The 5-byte HELLO of version-1 clients had no name field.
    with pytest.raises(ProtocolError, match="malformed HELLO"):
        protocol.unpack_hello(protocol.MAGIC + bytes([1]))


def test_hello_rejects_oversized_archive_name():
    with pytest.raises(ProtocolError, match="too long"):
        protocol.pack_hello(archive="x" * 300)


def test_hello_rejects_bad_magic():
    with pytest.raises(ProtocolError, match="magic"):
        protocol.unpack_hello(b"HTTP\x05\x00\x00")


def test_hello_rejects_wrong_size():
    with pytest.raises(ProtocolError):
        protocol.unpack_hello(b"RL")


def test_hello_rejects_truncated_archive_name():
    whole = protocol.pack_hello(archive="wiki")
    with pytest.raises(ProtocolError, match="archive name"):
        protocol.unpack_hello(whole[:-2])


def test_scan_roundtrip():
    assert protocol.unpack_scan(protocol.pack_scan()) == (0, [])
    assert protocol.unpack_scan(protocol.pack_scan(16, [3, 1, 2])) == (16, [3, 1, 2])
    with pytest.raises(ProtocolError):
        protocol.unpack_scan(b"\x00")


def test_chunk_roundtrip_preserves_order_and_duplicates():
    items = [(5, b"five"), (1, b""), (5, b"five"), (-2, b"neg")]
    assert protocol.unpack_chunk(protocol.pack_chunk(items)) == items
    assert protocol.unpack_chunk(protocol.pack_chunk([])) == []


@pytest.mark.parametrize(
    "corrupt",
    [b"", b"\x00\x00\x00\x01", b"\x00\x00\x00\x01" + b"\x00" * 11,
     b"\x00\x00\x00\x00" + b"extra"],
)
def test_chunk_rejects_corrupt_payloads(corrupt):
    with pytest.raises(ProtocolError):
        protocol.unpack_chunk(corrupt)


# ----------------------------------------------------------------------
# Payload codecs
# ----------------------------------------------------------------------
def test_doc_id_roundtrip():
    for doc_id in (0, 1, 2**40, -1):
        assert protocol.unpack_doc_id(protocol.pack_doc_id(doc_id)) == doc_id
    with pytest.raises(ProtocolError):
        protocol.unpack_doc_id(b"\x00")


def test_doc_ids_roundtrip():
    for ids in ([], [7], list(range(100))):
        assert protocol.unpack_doc_ids(protocol.pack_doc_ids(ids)) == ids
    with pytest.raises(ProtocolError):
        protocol.unpack_doc_ids(b"\x00")
    with pytest.raises(ProtocolError):  # count says 2, bytes say 1
        protocol.unpack_doc_ids(protocol.pack_doc_ids([1])[:-1] + b"\x00\x00\x00\x02")


def test_documents_roundtrip_preserves_order_and_duplicates():
    documents = [b"alpha", b"", b"alpha", b"\x00" * 1000]
    assert protocol.unpack_documents(protocol.pack_documents(documents)) == documents


@pytest.mark.parametrize(
    "corrupt",
    [
        b"",  # missing count
        b"\x00\x00\x00\x01",  # count 1, no length
        b"\x00\x00\x00\x01\x00\x00\x00\x05ab",  # length 5, 2 bytes
        b"\x00\x00\x00\x00extra",  # trailing bytes
    ],
)
def test_documents_rejects_corrupt_batches(corrupt):
    with pytest.raises(ProtocolError):
        protocol.unpack_documents(corrupt)


def test_busy_roundtrip():
    assert protocol.unpack_busy(protocol.pack_busy(25, 3)) == (25, 3)
    assert protocol.unpack_busy(protocol.pack_busy(-5, 2**40)) == (0, 0xFFFFFFFF)
    for malformed in (b"", b"\x00" * 7, b"\x00" * 9):
        with pytest.raises(ProtocolError, match="busy"):
            protocol.unpack_busy(malformed)


def test_stats_roundtrip():
    stats = {"requests": 3, "seconds": 0.25}
    assert protocol.unpack_stats(protocol.pack_stats(stats)) == stats
    with pytest.raises(ProtocolError):
        protocol.unpack_stats(b"not json")
    with pytest.raises(ProtocolError):
        protocol.unpack_stats(b"[1, 2]")


# ----------------------------------------------------------------------
# Error frames
# ----------------------------------------------------------------------
ALL_ERROR_CLASSES = sorted(protocol.ERROR_CODES, key=lambda cls: cls.__name__)


@pytest.mark.parametrize("error_class", ALL_ERROR_CLASSES)
def test_every_exported_error_roundtrips_exactly(error_class):
    """The wire must reproduce the concrete class, not an ancestor."""
    frame = protocol.encode_reply(
        Opcode.R_ERROR, 1, protocol.pack_error_for(error_class("the message"))
    )
    opcode, _, payload = protocol.split_reply(frame[4:])
    assert opcode == Opcode.R_ERROR
    with pytest.raises(error_class, match="the message") as excinfo:
        protocol.raise_error_frame(payload)
    assert type(excinfo.value) is error_class


def test_error_codes_cover_every_public_error():
    """Every class exported by repro.errors must have a wire code."""
    public = {
        obj
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.ReproError)
    }
    assert public == set(protocol.ERROR_CODES)


def test_unregistered_subclass_degrades_to_nearest_ancestor():
    class CustomStorageError(errors.StorageError):
        pass

    payload = protocol.pack_error_for(CustomStorageError("deep failure"))
    with pytest.raises(errors.StorageError, match="deep failure") as excinfo:
        protocol.raise_error_frame(payload)
    assert type(excinfo.value) is errors.StorageError


def test_non_repro_exception_degrades_to_repro_error():
    payload = protocol.pack_error_for(ValueError("server bug"))
    with pytest.raises(errors.ReproError, match="server bug") as excinfo:
        protocol.raise_error_frame(payload)
    assert type(excinfo.value) is errors.ReproError


def test_unknown_error_code_degrades_to_repro_error():
    with pytest.raises(errors.ReproError, match="future"):
        protocol.raise_error_frame(protocol.pack_error(999, "future error kind"))


def test_describe_opcode():
    assert protocol.describe_opcode(Opcode.GET) == "get"
    assert protocol.describe_opcode(Opcode.R_ERROR) == "r_error"
    assert protocol.describe_opcode(0x42) == "0x42"
