"""Integer and byte-stream codecs used to encode RLZ factor streams.

The paper's pair-coding schemes combine a *position* codec with a *length*
codec:

* ``U`` — raw unsigned 32-bit integers (:class:`repro.coding.fixed.U32Codec`)
* ``V`` — variable-byte coding (:class:`repro.coding.vbyte.VByteCodec`)
* ``Z`` — per-document zlib at best compression
  (:class:`repro.coding.zlib_codec.ZlibCodec`)

Extension codecs implementing the paper's future-work suggestions (Elias
gamma/delta, Simple-9, PForDelta) share the same
:class:`repro.coding.base.IntegerCodec` interface and are exercised by the
coding ablation benchmark.
"""

from .base import IntegerCodec
from .elias import BitReader, BitWriter, EliasDeltaCodec, EliasGammaCodec
from .fixed import FixedWidthCodec, U32Codec, U64Codec
from .pfordelta import PForDeltaCodec
from .registry import available_codecs, make_codec, register_codec
from .simple9 import Simple9Codec
from .vbyte import VByteCodec, decode_vbyte, encode_vbyte
from .zlib_codec import ZlibCodec

__all__ = [
    "BitReader",
    "BitWriter",
    "EliasDeltaCodec",
    "EliasGammaCodec",
    "FixedWidthCodec",
    "IntegerCodec",
    "PForDeltaCodec",
    "Simple9Codec",
    "U32Codec",
    "U64Codec",
    "VByteCodec",
    "ZlibCodec",
    "available_codecs",
    "decode_vbyte",
    "encode_vbyte",
    "make_codec",
    "register_codec",
]
