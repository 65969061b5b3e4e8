"""zlib-backed integer codec (the paper's ``Z`` scheme).

Section 3.4 observes that although positions look uniformly distributed over
the whole collection, *within a document* they are highly skewed (documents
repeat their own substrings, which factorize into identical pairs), so
compressing the per-document position stream with zlib gives a significant
boost.  The same holds for lengths.  This codec serialises the integer
sequence with an inner codec (vbyte by default, or fixed-width) and deflates
the result with ``zlib`` at best compression, exactly as the paper's ``Z``
pair coding does.
"""

from __future__ import annotations

import zlib
from typing import List, Sequence

from ..errors import DecodingError
from .base import IntegerCodec
from .fixed import U32Codec
from .vbyte import VByteCodec

__all__ = ["ZlibCodec"]


class ZlibCodec(IntegerCodec):
    """Deflate an integer stream serialised by an inner codec.

    Parameters
    ----------
    inner:
        Codec used to serialise the integers before compression.  The paper
        compresses the raw 32-bit position words; vbyte pre-serialisation is
        also supported and is slightly smaller for the length stream.
    level:
        zlib compression level (9, "best compression", matches the paper).
    """

    name = "z"

    def __init__(self, inner: IntegerCodec | None = None, level: int = 9) -> None:
        self._inner = inner if inner is not None else U32Codec()
        if not 0 <= level <= 9:
            raise ValueError(f"invalid zlib level: {level}")
        self._level = level
        self.name = f"z[{self._inner.name}]" if inner is not None else "z"

    @property
    def inner(self) -> IntegerCodec:
        """The codec used to serialise integers before deflation."""
        return self._inner

    def encode(self, values: Sequence[int]) -> bytes:
        return zlib.compress(self._inner.encode(values), self._level)

    def decode(self, data: bytes, count: int) -> List[int]:
        return self._inner.decode(_inflate(data), count)

    def decode_all(self, data: bytes) -> List[int]:
        return self._inner.decode_all(_inflate(data))


def _inflate(data: bytes) -> bytes:
    try:
        return zlib.decompress(data)
    except zlib.error as exc:
        raise DecodingError(f"corrupt zlib stream: {exc}") from exc


def make_zlib_vbyte_codec(level: int = 9) -> ZlibCodec:
    """Convenience constructor: zlib over a vbyte-serialised stream."""
    return ZlibCodec(inner=VByteCodec(), level=level)
