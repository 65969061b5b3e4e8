"""RLZ decoding (Figure 2 of the paper).

Decoding is intentionally trivial — that is the point of the scheme: with
the dictionary resident in memory, each ``(position, length)`` pair is
either a literal byte (length 0) or a slice copy out of the dictionary.

Two execution strategies produce identical output:

* a scalar path that collects zero-copy ``memoryview`` slices of the
  dictionary and joins them once at the end (no per-factor ``bytearray``
  growth); used for very short factor streams where numpy call overhead
  would dominate;
* a vectorized path that reconstructs the document with a single numpy
  gather out of the dictionary's :attr:`~repro.core.RlzDictionary.decode_table`
  (dictionary bytes followed by the 256 literal byte values).  Factor runs
  become consecutive index ranges built with one cumulative sum, so decoding
  proceeds at memory bandwidth rather than one Python iteration per factor.

All validation — literal byte range and dictionary bounds, shared by
:func:`decode_factors` and :func:`decode_pairs` — happens before a single
output byte is copied.  :func:`decode_many` batches whole request sets
through one gather (the fast-path benchmark uses it).  Served reads do not:
:class:`repro.storage.RlzStore` decodes one document at a time through
:meth:`repro.core.PairEncoder.decode_document`, the native kernel when it
is available and :func:`decode_pairs` otherwise.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import DecodingError
from .dictionary import RlzDictionary
from .factor import Factor, Factorization

__all__ = ["decode_factors", "decode_pairs", "decode_many"]

#: Minimum factor count before the vectorized path is considered at all
#: (below it the fixed numpy cost always loses).
_VECTOR_MIN_FACTORS = 32

#: The vectorized decoder pays per *output byte* (index build + gather)
#: while the scalar decoder pays per *factor* (one zero-copy slice each), so
#: vectorization wins exactly when factors are short.  Streams whose mean
#: copy length is at or below this many bytes take the vectorized path.
_VECTOR_MAX_MEAN_LENGTH = 4

#: Interned single-byte objects for literal factors on the scalar path.
_LITERALS = [bytes([value]) for value in range(256)]


def _check_literal(position: int) -> None:
    if not 0 <= position <= 255:
        raise DecodingError(f"literal byte out of range: {position}")


def _check_copy(position: int, length: int, limit: int) -> None:
    if position < 0 or length < 0 or position + length > limit:
        raise DecodingError(
            f"factor ({position}, {length}) is outside the dictionary (size {limit})"
        )


def _decode_scalar(
    positions: Sequence[int], lengths: Sequence[int], data: bytes
) -> bytes:
    """Decode one stream pair by joining zero-copy dictionary slices."""
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


def _validate_arrays(
    positions: np.ndarray, lengths: np.ndarray, limit: int
) -> np.ndarray:
    """Bounds-check whole streams at once; returns the literal mask.

    Shared by every vectorized decode entry point, and equivalent to running
    :func:`_check_literal` / :func:`_check_copy` on each factor — including
    raising on the first offending factor — before any output is built.
    """
    literal_mask = lengths == 0
    bad = np.flatnonzero(
        (literal_mask & ((positions < 0) | (positions > 255)))
        | (~literal_mask & ((lengths < 0) | (positions < 0) | (positions + lengths > limit)))
    )
    if bad.size:
        index = int(bad[0])
        if literal_mask[index]:
            _check_literal(int(positions[index]))
        _check_copy(int(positions[index]), int(lengths[index]), limit)
    return literal_mask


def _gather_indexes(
    positions: np.ndarray, lengths: np.ndarray, literal_mask: np.ndarray, limit: int
) -> Tuple[np.ndarray, int]:
    """Index array such that ``decode_table[indexes]`` is the decoded text.

    Every factor emits a run of consecutive indexes: copy factors start at
    their dictionary position, literals are a length-1 run into the identity
    region appended to the dictionary.  The runs are laid out by seeding a
    vector of ones with per-run start deltas and taking one cumulative sum.
    """
    output_lengths = np.where(literal_mask, 1, lengths)
    total = int(output_lengths.sum())
    # 32-bit indexes halve the memory traffic of the cumulative sums and the
    # gather; they cover every dictionary this codebase can represent.
    dtype = np.int32 if total <= 0x7FFFFFFF and limit + 256 <= 0x7FFFFFFF else np.int64
    output_lengths = output_lengths.astype(dtype, copy=False)
    run_starts = np.where(literal_mask, limit + positions, positions).astype(
        dtype, copy=False
    )
    run_offsets = np.empty(len(positions), dtype=dtype)
    run_offsets[0] = 0
    np.cumsum(output_lengths[:-1], out=run_offsets[1:])
    deltas = np.ones(total, dtype=dtype)
    seeds = np.empty(len(positions), dtype=dtype)
    seeds[0] = run_starts[0]
    seeds[1:] = run_starts[1:] - run_starts[:-1] - output_lengths[:-1] + 1
    deltas[run_offsets] = seeds
    return np.cumsum(deltas, dtype=dtype), total


def _decode_vector(
    positions: Sequence[int], lengths: Sequence[int], dictionary: RlzDictionary
) -> bytes:
    """Decode one stream pair with a single gather out of the decode table."""
    position_array = np.asarray(positions, dtype=np.int64)
    length_array = np.asarray(lengths, dtype=np.int64)
    literal_mask = _validate_arrays(position_array, length_array, len(dictionary.data))
    indexes, _ = _gather_indexes(
        position_array, length_array, literal_mask, len(dictionary.data)
    )
    return dictionary.decode_table[indexes].tobytes()


def decode_factors(factors: Iterable[Factor], dictionary: RlzDictionary) -> bytes:
    """Reconstruct a document from its factors and the dictionary."""
    pairs = [(factor.position, factor.length) for factor in factors]
    if not pairs:
        return b""
    positions = [pair[0] for pair in pairs]
    lengths = [pair[1] for pair in pairs]
    return decode_pairs(positions, lengths, dictionary)


def decode_pairs(
    positions: Sequence[int], lengths: Sequence[int], dictionary: RlzDictionary
) -> bytes:
    """Reconstruct a document from parallel position/length streams.

    This is the hot path used by :class:`repro.storage.RlzStore`: the factor
    objects are never materialised, the streams decoded by the pair codecs
    are consumed directly.
    """
    count = len(positions)
    if count != len(lengths):
        raise DecodingError(
            f"position/length stream mismatch: {count} vs {len(lengths)}"
        )
    if not count:
        return b""
    if count >= _VECTOR_MIN_FACTORS and sum(lengths) <= _VECTOR_MAX_MEAN_LENGTH * count:
        return _decode_vector(positions, lengths, dictionary)
    return _decode_scalar(positions, lengths, dictionary.data)


def decode_many(
    stream_pairs: Iterable[Tuple[Sequence[int], Sequence[int]]],
    dictionary: RlzDictionary,
) -> List[bytes]:
    """Decode a batch of documents' stream pairs in one vectorized pass.

    The per-document streams are concatenated, validated and gathered as a
    single index array, then the decoded byte run is sliced back into one
    ``bytes`` object per document.  For request batches this amortises the
    fixed numpy cost across the batch and is substantially faster than
    decoding document by document with the Python decoder.
    """
    pairs = list(stream_pairs)
    if not pairs:
        return []
    limit = len(dictionary.data)
    counts = []
    total_copy_bytes = 0
    for positions, lengths in pairs:
        if len(positions) != len(lengths):
            raise DecodingError(
                f"position/length stream mismatch: {len(positions)} vs {len(lengths)}"
            )
        counts.append(len(positions))
        total_copy_bytes += sum(lengths)
    total_factors = sum(counts)
    if total_factors == 0:
        return [b"" for _ in pairs]
    if (
        total_factors < _VECTOR_MIN_FACTORS
        or total_copy_bytes > _VECTOR_MAX_MEAN_LENGTH * total_factors
    ):
        # Long factors: one zero-copy slice per factor beats per-byte index
        # arithmetic, so decode document by document on the scalar path.
        data = dictionary.data
        return [
            _decode_scalar(positions, lengths, data) for positions, lengths in pairs
        ]
    position_array = np.empty(total_factors, dtype=np.int64)
    length_array = np.empty(total_factors, dtype=np.int64)
    cursor = 0
    for (positions, lengths), count in zip(pairs, counts):
        position_array[cursor : cursor + count] = positions
        length_array[cursor : cursor + count] = lengths
        cursor += count
    literal_mask = _validate_arrays(position_array, length_array, limit)
    indexes, total_bytes = _gather_indexes(
        position_array, length_array, literal_mask, limit
    )
    decoded = dictionary.decode_table[indexes].tobytes()
    # Per-document output extents: the factor-count boundaries mapped through
    # the per-factor output lengths.
    output_lengths = np.where(literal_mask, 1, length_array)
    factor_bounds = np.cumsum(np.asarray(counts, dtype=np.int64))
    byte_bounds = np.concatenate(([0], np.cumsum(output_lengths)))[factor_bounds]
    documents: List[bytes] = []
    start = 0
    for end in byte_bounds.tolist():
        documents.append(decoded[start:end])
        start = end
    assert start == total_bytes
    return documents


def decode_factorization(factorization: Factorization, dictionary: RlzDictionary) -> bytes:
    """Convenience wrapper over :func:`decode_factors` for a full parse."""
    return decode_factors(factorization, dictionary)
