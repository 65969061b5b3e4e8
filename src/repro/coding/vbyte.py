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

import numpy as np

from ..errors import DecodingError
from .base import IntegerCodec, as_int_array, check_non_negative

__all__ = ["VByteCodec", "encode_vbyte", "decode_vbyte", "decode_vbyte_array"]

_TERMINATOR = 0x80

#: Nine 7-bit digits fill 63 bits, the widest codeword an ``int64`` holds.
_MAX_ARRAY_DIGITS = 9

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
    those codewords are assembled in Python.  Unlike a numpy decode, this
    never releases the GIL, so a decode thread does not queue behind the
    server's event loop several times per document.
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


def decode_vbyte_array(data: bytes, count: int | None = None) -> np.ndarray:
    """Decode vbyte data into an integer array (contract of :func:`decode_vbyte`).

    The codewords are found all at once from their terminator bytes, and
    each value is one ``reduceat`` sum of its shifted 7-bit digits.  A
    codeword of more than nine bytes may not fit in ``int64``; such a
    stream is decoded into exact Python integers instead.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(raw & _TERMINATOR)
    if count is not None and 0 < count <= ends.size:
        ends = ends[:count]
        raw = raw[: ends[-1] + 1]
    else:
        if raw.size and (not ends.size or ends[-1] != raw.size - 1):
            raise DecodingError("truncated vbyte stream")
        if count is not None and ends.size != count:
            raise DecodingError(
                f"vbyte stream contained {ends.size} values, expected {count}"
            )
    digits = (raw & 0x7F).astype(np.int64)
    if ends.size == raw.size:
        return digits
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    widths = ends - starts + 1
    if int(widths.max()) > _MAX_ARRAY_DIGITS:
        return as_int_array(decode_vbyte(raw.tobytes()))
    shifts = 7 * (np.arange(raw.size) - np.repeat(starts, widths))
    return np.add.reduceat(digits << shifts, starts)


class VByteCodec(IntegerCodec):
    """Codec wrapper around :func:`encode_vbyte` / :func:`decode_vbyte`."""

    name = "v"

    def encode(self, values: Sequence[int]) -> bytes:
        check_non_negative(values, "vbyte")
        return encode_vbyte(values)

    def decode(self, data: bytes, count: int) -> List[int]:
        return decode_vbyte(data, count)

    def decode_array(self, data: bytes, count: int) -> np.ndarray:
        return decode_vbyte_array(data, count)

    def decode_all(self, data: bytes) -> List[int]:
        return decode_vbyte(data)
