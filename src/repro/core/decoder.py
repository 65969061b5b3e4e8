"""RLZ decoding (Figure 2 of the paper).

Decoding is intentionally trivial — that is the point of the scheme: with
the dictionary resident in memory, each ``(position, length)`` pair is
either a literal byte (length 0) or a slice copy out of the dictionary.

:func:`decode_pairs` is the one Python decoder: it collects zero-copy
``memoryview`` slices of the dictionary and joins them once at the end (no
per-factor ``bytearray`` growth).  Every factor is validated — literal byte
range and dictionary bounds — before a single output byte is copied.

Served reads go through :meth:`repro.core.PairEncoder.decode_document`,
which runs the native kernel for the paper's four schemes when it is
available; this module is the oracle the kernel is tested against and the
fallback for every other scheme, for a process without the kernel and for
every blob the kernel rejects.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from ..errors import DecodingError
from .dictionary import RlzDictionary
from .factor import Factor

__all__ = ["decode_factors", "decode_pairs"]

#: Interned single-byte objects for literal factors.
_LITERALS = [bytes([value]) for value in range(256)]


def _check_literal(position: int) -> None:
    if not 0 <= position <= 255:
        raise DecodingError(f"literal byte out of range: {position}")


def _check_copy(position: int, length: int, limit: int) -> None:
    if position < 0 or length < 0 or position + length > limit:
        raise DecodingError(
            f"factor ({position}, {length}) is outside the dictionary (size {limit})"
        )


def decode_factors(factors: Iterable[Factor], dictionary: RlzDictionary) -> bytes:
    """Reconstruct a document from its factors and the dictionary."""
    pairs = [(factor.position, factor.length) for factor in factors]
    return decode_pairs(
        [position for position, _ in pairs], [length for _, length in pairs], dictionary
    )


def decode_pairs(
    positions: Sequence[int], lengths: Sequence[int], dictionary: RlzDictionary
) -> bytes:
    """Reconstruct a document from parallel position/length streams.

    The streams decoded by the pair codecs are consumed directly; no factor
    objects are materialised.  Raises :class:`DecodingError` on the first
    invalid factor, before any output is built.
    """
    if len(positions) != len(lengths):
        raise DecodingError(
            f"position/length stream mismatch: {len(positions)} vs {len(lengths)}"
        )
    data = dictionary.data
    limit = len(data)
    view = memoryview(data)
    literals = _LITERALS
    parts: List[object] = []
    append = parts.append
    for position, length in zip(positions, lengths):
        if length == 0:
            if 0 <= position <= 255:
                append(literals[position])
            else:
                _check_literal(position)
        else:
            end = position + length
            if 0 <= position and 0 < length and end <= limit:
                append(view[position:end])
            else:
                _check_copy(position, length, limit)
    # Only memoryviews have been collected so far: the join below is the
    # single copy, and it runs only once every factor has validated.
    return b"".join(parts)
