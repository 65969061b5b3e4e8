"""Adversarial equivalence tests for the accelerated fast path.

Both implementations of the greedy parse behind ``factorize_stream`` must
produce exactly the parse of the paper's per-character algorithm: the
pure-Python port (run with the native factorize kernel forced off, as on a
host without a C compiler) and the native kernel itself.  These tests
hammer the cases where a fast path could plausibly diverge: zero bytes in
queries and dictionaries, dictionaries shorter than the kernel's 8-byte
compare width, matches that end exactly at the dictionary boundary, and
8-grams that are present, absent, or absent with shorter prefixes present.
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


def implementation(kind):
    """Run the block on ``kind`` (the kernel forced off for the Python port)."""
    return nullcontext() if kind == "native" else native.python_match_engine()


def reference_streams(suffix_array, query):
    """The parse as repeated ``longest_match`` calls (the documented contract)."""
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


def assert_all_modes_agree(text, query):
    """Fast stream and faithful mode agree, for every implementation: the
    Python port and the native kernel."""
    faithful = SuffixArray(text, accelerated=False)
    expected = reference_streams(faithful, query)
    for kind in IMPLEMENTATIONS:
        with implementation(kind):
            fast = SuffixArray(text)
            assert fast.factorize_stream(query) == expected, kind
            assert list(fast.match_stream(query)) == list(zip(*expected)), kind
            assert native.factorizer_name() == kind
    # Round-trip: the parse reproduces the query exactly.
    out = bytearray()
    for position, length in zip(*expected):
        if length == 0:
            out.append(position)
        else:
            out += text[position : position + length]
    assert bytes(out) == query


def test_zero_bytes_in_query_and_dictionary():
    text = b"ab\x00cd\x00\x00ef\x00abab"
    query = b"ab\x00cd\x00\x00efXY\x00\x00\x00abab\x00"
    assert_all_modes_agree(text, query)


def test_query_of_only_zero_bytes():
    assert_all_modes_agree(b"abcdef", b"\x00\x00\x00\x00")
    assert_all_modes_agree(b"a\x00b", b"\x00\x00\x00\x00\x00\x00\x00\x00\x00")


@pytest.mark.parametrize("size", [1, 2, 3, 7])
def test_dictionary_shorter_than_key_width(size):
    text = bytes(b"abcdefg"[:size])
    for query in (text, text * 5, b"x" + text, text + b"x", b"zzzzzzzzzz"):
        assert_all_modes_agree(text, query)


def test_match_ending_exactly_at_dictionary_boundary():
    text = b"0123456789abcdef"
    # The whole dictionary, its tail, and a tail extended past the boundary.
    assert_all_modes_agree(text, text)
    assert_all_modes_agree(text, text[8:])
    assert_all_modes_agree(text, text + b"XYZ")
    assert_all_modes_agree(text, text[10:] + b"0123")


def test_jump_start_hit_and_miss_paths():
    text = b"the quick brown fox jumps over the lazy dog"
    # hit: first 8 bytes occur verbatim; miss: 8-gram absent but shorter
    # prefixes present; miss entirely: no byte occurs.
    assert_all_modes_agree(text, b"the quick fox")
    assert_all_modes_agree(text, b"the quiX brown")
    assert_all_modes_agree(text, b"\x01\x02\x03")


def test_randomized_adversarial_equivalence():
    rng = random.Random(1234)
    alphabets = [b"ab", b"ab\x00", bytes(range(256)), b"\xff\xfe\x00a"]
    for _ in range(60):
        alphabet = rng.choice(alphabets)
        text = bytes(rng.choices(alphabet, k=rng.randint(1, 120)))
        query = bytes(rng.choices(alphabet + b"QZ", k=rng.randint(0, 60)))
        assert_all_modes_agree(text, query)


def test_factorize_stream_empty_and_type_checks():
    for kind in IMPLEMENTATIONS:
        with implementation(kind):
            suffix_array = SuffixArray(b"abc")
            assert suffix_array.factorize_stream(b"") == ([], [])
            with pytest.raises(TypeError):
                suffix_array.factorize_stream("not bytes")
