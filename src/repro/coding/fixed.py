"""Fixed-width unsigned integer coding (the paper's ``U`` scheme).

The paper's first factor-encoding variant stores every position as a raw
unsigned 32-bit little-endian integer on the assumption that positions are
spread uniformly over the dictionary and therefore incompressible.  A
64-bit variant is provided for dictionaries larger than 4 GiB; the RLZ
encoder selects the width automatically from the dictionary length.
"""

from __future__ import annotations

import struct
from typing import List, Sequence

from ..errors import DecodingError
from .base import IntegerCodec, check_non_negative

__all__ = ["FixedWidthCodec", "U32Codec", "U64Codec"]


class FixedWidthCodec(IntegerCodec):
    """Encode integers as fixed-width little-endian words."""

    def __init__(self, width: int) -> None:
        if width not in (1, 2, 4, 8):
            raise ValueError(f"unsupported fixed width: {width}")
        self._width = width
        self._format = {1: "B", 2: "H", 4: "I", 8: "Q"}[width]
        self._max = (1 << (8 * width)) - 1
        self.name = f"u{8 * width}"

    @property
    def width(self) -> int:
        """Number of bytes used per integer."""
        return self._width

    def encode(self, values: Sequence[int]) -> bytes:
        check_non_negative(values, self.name)
        for value in values:
            if value > self._max:
                raise ValueError(
                    f"value {value} does not fit in {8 * self._width} bits"
                )
        return struct.pack(f"<{len(values)}{self._format}", *values)

    def _check_size(self, data: bytes, count: int) -> None:
        if count < 0:
            raise DecodingError(f"negative value count {count}")
        expected = count * self._width
        if len(data) < expected:
            raise DecodingError(
                f"fixed-width stream too short: {len(data)} bytes, expected {expected}"
            )

    def decode(self, data: bytes, count: int) -> List[int]:
        self._check_size(data, count)
        return list(struct.unpack_from(f"<{count}{self._format}", data))

    def decode_all(self, data: bytes) -> List[int]:
        if len(data) % self._width:
            raise DecodingError("fixed-width stream length is not a multiple of width")
        return self.decode(data, len(data) // self._width)


class U32Codec(FixedWidthCodec):
    """Unsigned 32-bit integers — the paper's ``U`` position coding."""

    def __init__(self) -> None:
        super().__init__(4)
        self.name = "u"


class U64Codec(FixedWidthCodec):
    """Unsigned 64-bit integers, for dictionaries above 4 GiB."""

    def __init__(self) -> None:
        super().__init__(8)
        self.name = "u64"
