"""Tests for the Python decoder's contract: validate every factor before
copying, and the same typed errors from every entry point."""

import pytest

from repro.core import Factor, RlzDictionary, decode_factors, decode_pairs
from repro.errors import DecodingError


@pytest.fixture(scope="module")
def dictionary():
    return RlzDictionary(bytes(range(256)) + b"hello world " * 20)


def test_short_factor_streams_take_identical_output(dictionary):
    # Many literal/1-byte factors, held against a byte-at-a-time oracle.
    positions = list(range(64)) * 4
    lengths = [0, 1] * 128
    expected = bytes(
        position if length == 0 else dictionary.data[position]
        for position, length in zip(positions, lengths)
    )
    assert decode_pairs(positions, lengths, dictionary) == expected


def test_validation_happens_before_any_copy(dictionary):
    # A bad factor *after* valid ones must raise.
    limit = len(dictionary.data)
    with pytest.raises(DecodingError):
        decode_pairs([0, limit], [4, 10], dictionary)
    with pytest.raises(DecodingError):
        decode_pairs([0, limit - 1], [4, 2], dictionary)


def test_mismatched_streams_raise(dictionary):
    with pytest.raises(DecodingError, match="mismatch"):
        decode_pairs([1, 2], [3], dictionary)


def test_negative_length_rejected(dictionary):
    with pytest.raises(DecodingError):
        decode_pairs([3], [-2], dictionary)
    with pytest.raises(DecodingError):
        decode_factors([Factor(position=3, length=-2)], dictionary)


def test_boundary_factor_is_accepted(dictionary):
    limit = len(dictionary.data)
    # A copy ending exactly at the dictionary boundary is legal...
    assert (
        decode_pairs([limit - 8], [8], dictionary) == dictionary.data[limit - 8 :]
    )
    # ...one byte past it is not.
    with pytest.raises(DecodingError):
        decode_pairs([limit - 8], [9], dictionary)


def test_literal_validation_shared_between_entry_points(dictionary):
    for bad_literal in (-1, 256, 1000):
        with pytest.raises(DecodingError):
            decode_pairs([bad_literal], [0], dictionary)
        with pytest.raises(DecodingError):
            decode_pairs([0] * 40 + [bad_literal], [0] * 41, dictionary)
        with pytest.raises(DecodingError):
            decode_factors([Factor(position=bad_literal, length=0)], dictionary)


def test_decode_factors_accepts_generator(dictionary):
    factors = (Factor(position=index, length=1) for index in range(5))
    assert decode_factors(factors, dictionary) == dictionary.data[:1] * 0 + bytes(
        dictionary.data[index] for index in range(5)
    )
