"""Tests for the exception hierarchy."""

import pytest

from repro import errors


def test_all_errors_derive_from_repro_error():
    for name in (
        "DictionaryError",
        "FactorizationError",
        "EncodingError",
        "DecodingError",
        "StorageError",
        "CorpusError",
        "SearchError",
        "BenchmarkError",
        "ProtocolError",
    ):
        error_class = getattr(errors, name)
        assert issubclass(error_class, errors.ReproError)
        assert issubclass(error_class, Exception)


def test_catching_base_class_catches_all():
    with pytest.raises(errors.ReproError):
        raise errors.DecodingError("boom")


def test_library_raises_its_own_types_not_bare_exceptions():
    from repro.core import RlzDictionary

    with pytest.raises(errors.DictionaryError):
        RlzDictionary(b"")


def test_wire_codes_globally_unique_and_cover_every_error_class():
    import inspect

    from repro.serve.protocol import ERROR_CODES

    codes = list(ERROR_CODES.values())
    assert len(codes) == len(set(codes)), "duplicate wire codes in ERROR_CODES"
    assert all(isinstance(code, int) and code > 0 for code in codes)

    defined = {
        obj
        for obj in vars(errors).values()
        if inspect.isclass(obj) and issubclass(obj, errors.ReproError)
    }
    assert defined == set(ERROR_CODES), (
        "every repro.errors class needs exactly one wire code "
        "(and no stale registry entries)"
    )


def test_error_frames_round_trip_every_class():
    from repro.serve import protocol

    for error_class in protocol.ERROR_CODES:
        exc = error_class("boom goes the wire")
        frame = protocol.encode_reply(
            protocol.Opcode.R_ERROR, 7, protocol.pack_error_for(exc)
        )
        opcode, request_id, decoded = protocol.split_reply(frame[4:])
        assert (opcode, request_id) == (protocol.Opcode.R_ERROR, 7)
        with pytest.raises(error_class) as exc_info:
            protocol.raise_error_frame(decoded)
        assert type(exc_info.value) is error_class
        assert "boom goes the wire" in str(exc_info.value)
