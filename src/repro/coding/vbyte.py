"""Variable-byte (vbyte) integer coding.

vbyte stores an unsigned integer in base 128, one digit per byte, using the
high bit of each byte as a continuation flag: bytes with the high bit clear
are continuation bytes, and the final byte of each codeword has the high bit
set.  Small values therefore occupy a single byte, which is why the paper
uses vbyte for the length stream — Figure 3 shows the vast majority of
factor lengths are small.
"""

from __future__ import annotations

import re
from typing import Iterable, List, Sequence

from ..errors import DecodingError
from .base import IntegerCodec, check_non_negative

__all__ = ["VByteCodec", "encode_vbyte", "decode_vbyte"]

_TERMINATOR = 0x80

#: ``bytes.translate`` table giving each byte's 7-bit digit.
_DIGITS = bytes(value & 0x7F for value in range(256))
_CONTINUATION_RUN = re.compile(rb"[\x00-\x7f]+")


def encode_vbyte(values: Iterable[int]) -> bytes:
    """Encode an iterable of non-negative integers with vbyte."""
    out = bytearray()
    for value in values:
        if value < 0:
            raise ValueError(f"vbyte cannot encode negative value {value}")
        while value >= 128:
            out.append(value & 0x7F)
            value >>= 7
        out.append(value | _TERMINATOR)
    return bytes(out)


def decode_vbyte(data: bytes, count: int | None = None) -> List[int]:
    """Decode vbyte data into a list of integers.

    Parameters
    ----------
    data:
        The encoded byte string.
    count:
        When given (and positive), decoding stops after this many integers
        and any bytes after the ``count``-th codeword are ignored; a stream
        holding fewer values raises :class:`DecodingError`.  When ``None``
        the whole buffer is decoded.  A truncated final codeword always
        raises.

    One ``bytes.translate`` yields every byte's 7-bit digit, so the
    single-byte codewords between two multi-byte ones enter the list as
    one slice.  One regex scan finds the runs of continuation bytes; only
    those codewords are assembled in Python.
    """
    digits = data.translate(_DIGITS)
    values: List[int] = []
    done = 0
    for run in _CONTINUATION_RUN.finditer(data):
        start, end = run.span()
        values += digits[done:start]
        if count is not None and 0 < count <= len(values):
            return values[:count]
        if end == len(data):
            raise DecodingError("truncated vbyte stream")
        value = 0
        for digit in reversed(digits[start : end + 1]):
            value = (value << 7) | digit
        values.append(value)
        done = end + 1
    values += digits[done:]
    if count is not None and 0 < count <= len(values):
        return values[:count]
    if count is not None and len(values) != count:
        raise DecodingError(
            f"vbyte stream contained {len(values)} values, expected {count}"
        )
    return values


class VByteCodec(IntegerCodec):
    """Codec wrapper around :func:`encode_vbyte` / :func:`decode_vbyte`."""

    name = "v"

    def encode(self, values: Sequence[int]) -> bytes:
        check_non_negative(values, "vbyte")
        return encode_vbyte(values)

    def decode(self, data: bytes, count: int) -> List[int]:
        return decode_vbyte(data, count)

    def decode_all(self, data: bytes) -> List[int]:
        return decode_vbyte(data)
