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

Serving decodes go through :meth:`PairEncoder.decode_document` and
:meth:`PairEncoder.decode_window`.  For the paper's four schemes (u32
positions and vbyte lengths, each optionally zlib-wrapped) they hand the
blob to the native kernel (:mod:`repro.core.native`), which inflates,
validates and copies the document — or only the prefix a window needs — in
one C call.  Other schemes, a process without the kernel, and every blob the
kernel rejects take the Python path (:meth:`PairEncoder.decode_streams` plus
:func:`repro.core.decode_pairs`), which defines the results and the typed
errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from ..coding import IntegerCodec, U32Codec, VByteCodec, ZlibCodec, encode_vbyte, make_codec
from ..errors import DecodingError, EncodingError
from . import native
from .decoder import decode_pairs
from .factor import Factor, Factorization

if TYPE_CHECKING:
    from .dictionary import RlzDictionary

__all__ = ["PairCodingScheme", "PairEncoder", "PAPER_SCHEMES"]

#: The four schemes evaluated in Tables 4, 5 and 8 of the paper.
PAPER_SCHEMES = ("ZZ", "ZV", "UZ", "UV")

#: Window offsets handed to the kernel are clamped here (an unsigned 64-bit
#: argument); no document comes near this size.
_MAX_OFFSET = (1 << 63) - 1


def _kernel_layout(scheme: "PairCodingScheme") -> Optional[int]:
    """The native kernel's ``layout`` argument for ``scheme`` (which streams
    are zlib-wrapped), or ``None`` when the kernel cannot read its streams:
    positions must be u32 words and lengths vbyte, each optionally zlib."""
    layout = 0
    for codec, inner, inflate in (
        (scheme.position_codec, U32Codec, native.INFLATE_POSITIONS),
        (scheme.length_codec, VByteCodec, native.INFLATE_LENGTHS),
    ):
        if type(codec) is ZlibCodec:
            codec, layout = codec.inner, layout | inflate
        if type(codec) is not inner:
            return None
    return layout


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
        self._kernel_layout = _kernel_layout(scheme)

    @property
    def scheme(self) -> PairCodingScheme:
        """The pair-coding scheme in use."""
        return self._scheme

    @property
    def scheme_name(self) -> str:
        """Short name of the scheme (e.g. ``"ZV"``)."""
        return self._scheme.name

    @property
    def decode_kernel(self) -> str:
        """``"native"`` or ``"python"``: the decoder serving this scheme."""
        return "native" if self._kernel() is not None else "python"

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

        The Python path of :meth:`decode_window` locates a window's factors
        with array arithmetic on these.  The Python path of
        :meth:`decode_document` keeps the lists:
        :func:`repro.core.decode_pairs` consumes lists, and numpy releases
        the GIL inside every large array operation, which on a busy server
        hands the decode thread's turn away several times per document.
        """
        return self._decode(blob, as_arrays=True)

    def decode_document(self, blob: bytes, dictionary: "RlzDictionary") -> bytes:
        """Decode a blob straight to the document's bytes.

        One native kernel call when the kernel reads this scheme; otherwise,
        or when the kernel rejects the blob, :meth:`decode_streams` plus
        :func:`repro.core.decode_pairs`, which raise the typed error.
        """
        kernel = self._kernel()
        if kernel is not None:
            document = kernel.document(blob, self._kernel_layout, dictionary.data)
            if document is not None:
                return document
        positions, lengths = self.decode_streams(blob)
        return decode_pairs(positions, lengths, dictionary)

    def decode_window(
        self, blob: bytes, dictionary: "RlzDictionary", start: int, length: int
    ) -> Tuple[bytes, int]:
        """Bytes ``[start, start+length)`` of the document, clamped to it.

        Returns the window and the output size of the factors intersecting
        it (0 for an empty window): the bytes a partial decode materialises,
        which :attr:`repro.storage.RlzStore.decoded_bytes` charges.  Routed
        like :meth:`decode_document`, except that the kernel reads and
        validates the blob only through the window's last covering factor:
        a blob malformed only after it still yields the window, where the
        Python path would raise.
        """
        if start < 0 or length < 0:
            raise ValueError(f"window needs non-negative start/length, got {start}/{length}")
        kernel = self._kernel()
        if kernel is not None:
            result = kernel.window(
                blob,
                self._kernel_layout,
                dictionary.data,
                min(start, _MAX_OFFSET),
                min(length, _MAX_OFFSET),
            )
            if result is not None:
                return result
        return self._decode_window_arrays(blob, dictionary, start, length)

    def _decode_window_arrays(
        self, blob: bytes, dictionary: "RlzDictionary", start: int, length: int
    ) -> Tuple[bytes, int]:
        """The Python window path: one ``np.cumsum`` of the per-factor output
        lengths gives every factor's end offset, two ``np.searchsorted``
        calls find the covering range ``[first, last]``, and
        :func:`repro.core.decode_pairs` runs on that sub-range only."""
        positions, lengths = self.decode_arrays(blob)
        # A literal factor (length 0) outputs exactly one byte.
        factor_ends = np.cumsum(np.maximum(lengths, 1))
        end = min(start + length, int(factor_ends[-1]) if len(factor_ends) else 0)
        if start >= end:
            return b"", 0
        first = int(np.searchsorted(factor_ends, start, side="right"))
        last = int(np.searchsorted(factor_ends, end, side="left"))
        skip = start - (int(factor_ends[first - 1]) if first else 0)
        covering = decode_pairs(
            positions[first : last + 1].tolist(),
            lengths[first : last + 1].tolist(),
            dictionary,
        )
        return bytes(covering[skip : skip + (end - start)]), len(covering)

    def _kernel(self) -> Optional[native.Kernel]:
        return native.kernel() if self._kernel_layout is not None else None

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
