"""Factor-pair encoding schemes (Section 3.4 of the paper).

A document's factorization is two parallel integer streams — positions and
lengths — grouped per document and encoded independently.  The paper
evaluates four combinations, named by two letters (position codec first):

=======  =====================================  ==================================
Scheme   Position stream                        Length stream
=======  =====================================  ==================================
``ZZ``   zlib (best compression) over raw u32   zlib over vbyte
``ZV``   zlib over raw u32                      vbyte
``UZ``   raw u32                                zlib over vbyte
``UV``   raw u32                                vbyte
=======  =====================================  ==================================

Any codec registered in :mod:`repro.coding.registry` can be used for either
stream (e.g. ``"GV"`` uses Elias gamma positions), which is how the coding
ablation benchmark explores the future-work codecs from Section 6.

The per-document container layout produced by :class:`PairEncoder` is::

    vbyte  number of factors
    vbyte  byte length of the encoded position stream
    bytes  encoded position stream
    bytes  encoded length stream (runs to the end of the blob)

Literal factors are carried in-band exactly as the paper describes: a factor
with length 0 stores the literal byte value in its position field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..coding import IntegerCodec, U32Codec, VByteCodec, ZlibCodec, encode_vbyte, make_codec
from ..errors import DecodingError, EncodingError
from .factor import Factor, Factorization

__all__ = ["PairCodingScheme", "PairEncoder", "PAPER_SCHEMES"]

#: The four schemes evaluated in Tables 4, 5 and 8 of the paper.
PAPER_SCHEMES = ("ZZ", "ZV", "UZ", "UV")


@dataclass(frozen=True)
class PairCodingScheme:
    """A named combination of a position codec and a length codec."""

    name: str
    position_codec: IntegerCodec
    length_codec: IntegerCodec

    @classmethod
    def from_name(cls, name: str) -> "PairCodingScheme":
        """Parse a two-letter scheme name such as ``"ZV"``.

        The first letter selects the position codec, the second the length
        codec.  ``Z`` is interpreted the way the paper uses it: zlib over raw
        u32 words for positions, zlib over vbyte for lengths (lengths are
        overwhelmingly small, so the vbyte pre-serialisation is both smaller
        and faster).
        """
        if len(name) != 2:
            raise EncodingError(
                f"pair-coding scheme names have exactly two letters, got {name!r}"
            )
        position_letter, length_letter = name[0].upper(), name[1].upper()
        position_codec = cls._position_codec(position_letter)
        length_codec = cls._length_codec(length_letter)
        return cls(name=name.upper(), position_codec=position_codec, length_codec=length_codec)

    @staticmethod
    def _position_codec(letter: str) -> IntegerCodec:
        if letter == "Z":
            return ZlibCodec(inner=U32Codec())
        return make_codec(letter)

    @staticmethod
    def _length_codec(letter: str) -> IntegerCodec:
        if letter == "Z":
            return ZlibCodec(inner=VByteCodec())
        if letter == "U":
            return U32Codec()
        return make_codec(letter)


class PairEncoder:
    """Encode/decode per-document factor streams under a pair-coding scheme."""

    def __init__(self, scheme: PairCodingScheme | str = "ZZ") -> None:
        if isinstance(scheme, str):
            scheme = PairCodingScheme.from_name(scheme)
        self._scheme = scheme

    @property
    def scheme(self) -> PairCodingScheme:
        """The pair-coding scheme in use."""
        return self._scheme

    @property
    def scheme_name(self) -> str:
        """Short name of the scheme (e.g. ``"ZV"``)."""
        return self._scheme.name

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self, factorization: Factorization) -> bytes:
        """Serialise one document's factorization into a self-contained blob."""
        return self.encode_streams(factorization.positions(), factorization.lengths())

    def encode_streams(self, positions: List[int], lengths: List[int]) -> bytes:
        """Serialise raw (positions, lengths) streams into a blob.

        This is the zero-object fast path used by the throughput pipeline:
        the streams produced by ``RlzFactorizer.factorize_streams`` are
        encoded directly, yielding a blob byte-identical to
        ``encode(factorize(text))``.
        """
        if len(positions) != len(lengths):
            raise EncodingError(
                f"position/length stream mismatch: {len(positions)} vs {len(lengths)}"
            )
        try:
            position_bytes = self._scheme.position_codec.encode(positions)
            length_bytes = self._scheme.length_codec.encode(lengths)
        except ValueError as exc:
            raise EncodingError(str(exc)) from exc
        header = encode_vbyte([len(positions), len(position_bytes)])
        return header + position_bytes + length_bytes

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode_streams(self, blob: bytes) -> Tuple[List[int], List[int]]:
        """Decode a blob back into its (positions, lengths) streams."""
        return self._decode(blob, as_arrays=False)

    def decode_arrays(self, blob: bytes) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`decode_streams` as integer arrays (the codecs' ``decode_array``).

        :meth:`repro.storage.RlzStore.get_window` locates a window's factors
        with array arithmetic on these.  Whole-document decodes keep the
        lists: :func:`repro.core.decode_pairs` consumes lists, and numpy
        releases the GIL inside every large array operation, which on a
        busy server hands the decode thread's turn away several times per
        document.
        """
        return self._decode(blob, as_arrays=True)

    def _decode(self, blob: bytes, as_arrays: bool):
        count, position_size, offset = self._read_header(blob)
        position_end = offset + position_size
        if position_end > len(blob):
            raise DecodingError("encoded document truncated in position stream")
        position_codec = self._scheme.position_codec
        length_codec = self._scheme.length_codec
        if as_arrays:
            positions = position_codec.decode_array(blob[offset:position_end], count)
            lengths = length_codec.decode_array(blob[position_end:], count)
        else:
            positions = position_codec.decode(blob[offset:position_end], count)
            lengths = length_codec.decode(blob[position_end:], count)
        if len(positions) != count or len(lengths) != count:
            raise DecodingError("stream lengths disagree with factor count")
        return positions, lengths

    def decode(self, blob: bytes) -> Factorization:
        """Decode a blob back into a :class:`Factorization`."""
        positions, lengths = self.decode_streams(blob)
        return Factorization(
            [Factor(position=p, length=l) for p, l in zip(positions, lengths)]
        )

    @staticmethod
    def _read_header(blob: bytes) -> Tuple[int, int, int]:
        """Read the (factor count, position-stream size) header.

        Returns the two values plus the offset of the first byte after the
        header.
        """
        values: List[int] = []
        offset = 0
        current = 0
        shift = 0
        while offset < len(blob) and len(values) < 2:
            byte = blob[offset]
            offset += 1
            if byte & 0x80:
                values.append(current | ((byte & 0x7F) << shift))
                current = 0
                shift = 0
            else:
                current |= byte << shift
                shift += 7
        if len(values) != 2:
            raise DecodingError("encoded document header truncated")
        return values[0], values[1], offset
