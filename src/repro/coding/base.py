"""Codec interfaces shared by all integer and byte-stream codecs.

The paper encodes the position and length streams of each document's RLZ
factorization with one of three schemes: raw unsigned 32-bit integers
(``U``), variable-byte coding (``V``) and per-document zlib (``Z``).  The
future-work section (Section 6) additionally mentions Simple-9 and
PForDelta.  All of them are exposed behind one small interface so the factor
encoder can combine any position codec with any length codec.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from ..errors import DecodingError

__all__ = ["IntegerCodec", "check_non_negative"]


def check_non_negative(values: Sequence[int], codec_name: str) -> None:
    """Raise :class:`ValueError` when a codec is given a negative integer.

    All codecs in this package encode unsigned integers only; factor
    positions and lengths are non-negative by construction, so a negative
    value always indicates a programming error in the caller.
    """
    for value in values:
        if value < 0:
            raise ValueError(f"{codec_name} cannot encode negative value {value}")


class IntegerCodec(ABC):
    """Encode and decode sequences of unsigned integers to/from bytes."""

    #: Short identifier used by the codec registry and the factor-encoding
    #: scheme names (for example ``"v"`` for vbyte).
    name: str = ""

    @abstractmethod
    def encode(self, values: Sequence[int]) -> bytes:
        """Encode ``values`` into a byte string."""

    @abstractmethod
    def decode(self, data: bytes, count: int) -> list[int]:
        """Decode exactly ``count`` integers from ``data``.

        Implementations must raise :class:`repro.errors.DecodingError` when
        ``data`` is truncated or malformed.
        """

    def decode_all(self, data: bytes) -> list[int]:
        """Decode every integer in ``data`` (only for self-delimiting codecs)."""
        raise DecodingError(
            f"codec {self.name!r} cannot decode without an explicit count"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"{self.__class__.__name__}(name={self.name!r})"
