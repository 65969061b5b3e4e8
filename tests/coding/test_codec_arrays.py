"""Codec decode contracts against independent oracles.

Every codec's decode returns a prefix of the encoded values or raises
:class:`DecodingError` on truncated streams and on counts shorter or longer
than the stream.  The vbyte decode is held against a digit-by-digit
reference decoder (same values, or the same error), and the fixed-width
decode against ``struct``.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.coding import (
    EliasGammaCodec,
    U32Codec,
    U64Codec,
    VByteCodec,
    ZlibCodec,
    decode_vbyte,
    encode_vbyte,
)
from repro.errors import DecodingError

EDGES = [0, 1, 127, 128, 2**14, 2**40, 2**63 - 1, 2**63, 2**64]

CODECS = {
    "vbyte": (VByteCodec(), 2**64),
    "u32": (U32Codec(), 2**32 - 1),
    "u64": (U64Codec(), 2**64 - 1),
    "zlib[u32]": (ZlibCodec(inner=U32Codec()), 2**32 - 1),
    "zlib[vbyte]": (ZlibCodec(inner=VByteCodec()), 2**64),
    "gamma": (EliasGammaCodec(), 2**64),
}


def _outcome(decode):
    try:
        return decode()
    except DecodingError:
        return DecodingError


def _scalar_vbyte(data, count=None):
    """The digit-by-digit reference decoder with the documented contract."""
    values = []
    current = shift = 0
    for byte in data:
        current |= (byte & 0x7F) << shift
        if byte & 0x80:
            values.append(current)
            current = shift = 0
            if count is not None and len(values) == count:
                return values
        else:
            shift += 7
    if shift:
        raise DecodingError("truncated")
    if count is not None and len(values) != count:
        raise DecodingError("count")
    return values


@st.composite
def streams(draw, limit):
    edges = [value for value in EDGES if value <= limit]
    values = draw(
        st.lists(
            st.one_of(
                st.sampled_from(edges), st.integers(min_value=0, max_value=limit)
            ),
            max_size=40,
        )
    )
    count = max(0, len(values) + draw(st.integers(min_value=-3, max_value=3)))
    cut = draw(st.integers(min_value=0, max_value=3))
    return values, count, cut


@pytest.mark.parametrize("name", sorted(CODECS))
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_decode_returns_a_prefix_or_a_typed_error(name, data):
    """Truncated streams and counts off by a few values give a list or a
    :class:`DecodingError`, and a count within an intact stream gives its
    first ``count`` values."""
    codec, limit = CODECS[name]
    values, count, cut = data.draw(streams(limit))
    encoded = codec.encode(values)
    encoded = encoded[: len(encoded) - cut] if cut else encoded
    decoded = _outcome(lambda: codec.decode(encoded, count))
    assert decoded is DecodingError or isinstance(decoded, list)
    if not cut and 0 < count <= len(values) and name != "gamma":
        assert decoded == values[:count]


@st.composite
def sparse_streams(draw):
    """Mostly single-byte values with a few multi-byte ones, like a factor
    length stream."""
    values = draw(
        st.lists(st.integers(min_value=0, max_value=127), min_size=64, max_size=300)
    )
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        index = draw(st.integers(min_value=0, max_value=len(values)))
        values.insert(index, draw(st.sampled_from(EDGES[3:])))
    count = max(0, len(values) + draw(st.integers(min_value=-3, max_value=3)))
    return values, count, draw(st.integers(min_value=0, max_value=3))


@given(st.one_of(streams(2**64), sparse_streams()), st.booleans())
@settings(max_examples=200, deadline=None)
def test_vbyte_matches_scalar_oracle(stream, counted):
    values, count, cut = stream
    encoded = encode_vbyte(values)
    encoded = encoded[: len(encoded) - cut] if cut else encoded
    count = count if counted else None
    expected = _outcome(lambda: _scalar_vbyte(encoded, count))
    assert _outcome(lambda: decode_vbyte(encoded, count)) == expected


@pytest.mark.parametrize("codec, fmt", [(U32Codec(), "I"), (U64Codec(), "Q")])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_fixed_width_matches_struct(codec, fmt, data):
    values, count, cut = data.draw(streams(2 ** (8 * struct.calcsize(fmt)) - 1))
    encoded = codec.encode(values)
    encoded = encoded[: len(encoded) - cut] if cut else encoded
    try:
        expected = list(struct.unpack_from(f"<{count}{fmt}", encoded))
    except struct.error:
        expected = DecodingError
    assert _outcome(lambda: codec.decode(encoded, count)) == expected


def test_vbyte_edge_values_round_trip_exactly():
    encoded = encode_vbyte(EDGES)
    # Values past 63 bits keep their exact Python integers.
    assert decode_vbyte(encoded, len(EDGES)) == EDGES
    assert decode_vbyte(encoded) == EDGES


@pytest.mark.parametrize("decode", [decode_vbyte])
def test_vbyte_count_contract(decode):
    data = encode_vbyte([1, 300, 3])
    assert decode(data, 2) == [1, 300]
    # Bytes after the count-th codeword are not looked at.
    assert decode(data + b"\x01", 3) == [1, 300, 3]
    with pytest.raises(DecodingError, match="expected 4"):
        decode(data, 4)
    with pytest.raises(DecodingError, match="truncated"):
        decode(encode_vbyte([1, 300])[:-1], None)
    with pytest.raises(DecodingError, match="truncated"):
        decode(data + b"\x01", 4)
    with pytest.raises(DecodingError):
        decode(data, 0)
    assert decode(b"", 0) == []
    assert decode(b"", None) == []
    assert decode(encode_vbyte(EDGES), None) == EDGES


def test_fixed_width_rejects_negative_count():
    with pytest.raises(DecodingError):
        U32Codec().decode(b"\x00" * 8, -1)
