"""Boundary regression tests for short windows and zero bytes.

The native kernel compares 8 bytes at a time and both implementations of
the greedy parse cap every comparison at the end of the text and of the
query, so every window narrower than 8 bytes (the final bytes of a query,
suffixes near the end of the text) and every real ``\\x00`` byte is a
chance for a comparison to read past the data or mistake it for padding.
These tests pin that down with trailing zero bytes in the query, in the
dictionary, and in both, around the 4-byte and 8-byte edges, under the
pure-Python port (run with the native factorize kernel forced off) and
under the native kernel.  ``longest_match`` with a ``limit`` is the
per-character reference, checked against the brute-force answer.
"""

import random
from contextlib import nullcontext

import pytest

from repro.core import native
from repro.suffix import SuffixArray

#: ``python``: the pure-Python port; ``native``: the C factorize kernel,
#: where it builds.
IMPLEMENTATIONS = ("python",) + (
    ("native",) if native.factorize_kernel() is not None else ()
)


def reference_streams(suffix_array, query):
    positions, lengths = [], []
    cursor = 0
    while cursor < len(query):
        position, length = suffix_array.longest_match(query, cursor)
        if length == 0:
            positions.append(query[cursor])
            lengths.append(0)
            cursor += 1
        else:
            positions.append(position)
            lengths.append(length)
            cursor += length
    return positions, lengths


def assert_boundary_identical(text, query):
    """Every implementation equals the faithful per-char parse."""
    faithful = SuffixArray(text, accelerated=False)
    expected = reference_streams(faithful, query)
    for kind in IMPLEMENTATIONS:
        engine = nullcontext() if kind == "native" else native.python_match_engine()
        with engine:
            fast = SuffixArray(text)
            assert fast.factorize_stream(query) == expected, kind
            assert native.factorizer_name() == kind
    # Round-trip sanity.
    out = bytearray()
    for position, length in zip(*expected):
        out += bytes([position]) if length == 0 else text[position : position + length]
    assert bytes(out) == query


# ----------------------------------------------------------------------
# Trailing zeros: the shapes that collide with key padding
# ----------------------------------------------------------------------
@pytest.mark.parametrize("zeros", [1, 2, 3, 4, 5, 7, 8, 9])
def test_trailing_zeros_in_dictionary(zeros):
    text = b"abcdefgh" + b"\x00" * zeros
    for query in (b"abcdefgh", b"abcd", b"abc\x00", b"h" + b"\x00" * 4, b"\x00" * 3):
        assert_boundary_identical(text, query)


@pytest.mark.parametrize("zeros", [1, 2, 3, 4, 7, 8, 9])
def test_trailing_zeros_in_query(zeros):
    text = b"the quick brown fox jumps"
    for stem in (b"the quick", b"fox", b"", b"q"):
        assert_boundary_identical(text, stem + b"\x00" * zeros)


def test_trailing_zeros_in_both():
    for text_zeros in (1, 3, 4, 8):
        for query_zeros in (1, 3, 4, 8):
            text = b"banana" + b"\x00" * text_zeros
            query = b"banana" + b"\x00" * query_zeros
            assert_boundary_identical(text, query)
            assert_boundary_identical(text, b"nana" + b"\x00" * query_zeros + b"na")


def test_sub_width_window_cannot_borrow_padding():
    """A query tail shorter than 8 bytes must not match a short suffix
    through zero padding: ``ab`` padded to ``ab\\0\\0`` and the query tail
    ``ab`` agree on 8 padded bytes but only 2 real ones."""
    text = b"xyab"  # the suffix "ab" ends the text
    assert_boundary_identical(text, b"ab")  # 2-byte query, sub-4 window
    assert_boundary_identical(text, b"aba")  # 3-byte query, sub-4 window
    assert_boundary_identical(text, b"ab\x00\x00")  # explicit zeros: real match is 2
    # Same at the 8-byte edge.
    text = b"qqabcdef"
    assert_boundary_identical(text, b"abcdef")
    assert_boundary_identical(text, b"abcdef\x00\x00")


def test_match_ending_at_text_end_with_zero_suffix():
    """Real zeros at the end of the dictionary are matchable data, not
    padding; the guards must not reject them."""
    text = b"data\x00\x00"
    assert_boundary_identical(text, b"data\x00\x00")
    assert_boundary_identical(text, b"data\x00\x00\x00\x00")
    assert_boundary_identical(text, b"ta\x00")


# ----------------------------------------------------------------------
# limit caps: windows narrowed by the caller, not by the query end
# ----------------------------------------------------------------------
@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 5, 7, 8, 9, 16])
def test_limit_narrower_than_available_query(limit):
    """``longest_match`` (the per-character reference) against brute force."""
    text = b"abcdefghijklmnop\x00\x00qrst"
    query = b"abcdefghijklmnop\x00\x00qrst"
    suffix_array = SuffixArray(text)
    for start in range(len(query)):
        window = query[start : start + limit]
        expected = max(k for k in range(len(window) + 1) if window[:k] in text)
        got = suffix_array.longest_match(query, start, limit)
        assert got[1] == expected, (start, limit)
        if got[1]:
            assert text[got[0] : got[0] + got[1]] == query[start : start + got[1]]


def test_limit_zero_and_past_end():
    suffix_array = SuffixArray(b"abcabc")
    assert suffix_array.longest_match(b"abc", 0, 0) == (0, 0)
    assert suffix_array.longest_match(b"abc", 3) == (0, 0)
    assert suffix_array.longest_match(b"abc", 0, 99)[1] == 3


# ----------------------------------------------------------------------
# Randomised boundary fuzz, biased toward the edges
# ----------------------------------------------------------------------
def test_randomized_boundary_fuzz():
    rng = random.Random(20260730)
    alphabets = [b"ab\x00", b"a\x00", b"abc", bytes(range(4)) + b"\x00"]
    for trial in range(120):
        alphabet = alphabets[trial % len(alphabets)]
        text = bytes(rng.choices(alphabet, k=rng.randint(1, 40)))
        text += b"\x00" * rng.randint(0, 9)
        # Bias the query toward dictionary substrings ending near the edge.
        pieces = []
        for _ in range(rng.randint(0, 4)):
            lo = rng.randrange(0, len(text))
            pieces.append(text[lo : lo + rng.randint(1, 12)])
        pieces.append(bytes(rng.choices(alphabet, k=rng.randint(0, 10))))
        pieces.append(b"\x00" * rng.randint(0, 9))
        assert_boundary_identical(text, b"".join(pieces))
