"""Byte-identity battery for the match engine.

The engine (``SuffixArray.match_stream`` / ``_match_factor``) resolves each
factor with one lcp-aware binary search over its jump-start interval and
batches cold jump probes.  It must produce exactly the parse of the paper's
per-character algorithm (``accelerated=False``, the oracle) through every
entry point — ``factorize_stream``, ``match_stream`` and ``longest_match``
— over both jump-index kinds.  The hand-picked cases below are the
adversarial shapes: empty documents, all-literal streams, trailing-zero
boundary keys and zero-byte windows; the generated property covers the
rest.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import RlzDictionary, RlzFactorizer
from repro.suffix import SuffixArray

JUMP_KINDS = ("dict", "compact")


def reference_streams(suffix_array, query):
    """The per-factor parse via ``longest_match``."""
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


def engine(text, kind="dict"):
    """An accelerated suffix array whose jump index is of ``kind``.

    Small texts get the dict index; lowering the size threshold on the
    instance forces the compact one.
    """
    suffix_array = SuffixArray(text)
    if kind == "compact":
        suffix_array._SMALL_TEXT_MAX = 0
    return suffix_array


def assert_engine_identical(text, query):
    """Every engine entry point equals the faithful parse, for both kinds."""
    expected = reference_streams(SuffixArray(text, accelerated=False), query)
    for kind in JUMP_KINDS:
        suffix_array = engine(text, kind)
        assert suffix_array.factorize_stream(query) == expected, kind
        assert list(suffix_array.match_stream(query)) == list(zip(*expected)), kind
        assert reference_streams(suffix_array, query) == expected, kind


# ----------------------------------------------------------------------
# Generated parse identity
# ----------------------------------------------------------------------
_ALPHABETS = (b"ab", b"ab\x00", b"abcdefgh <>\x00", bytes(range(256)))


@st.composite
def dictionaries(draw):
    """Texts with embedded NULs, single-byte runs and trailing zeros."""
    alphabet = draw(st.sampled_from(_ALPHABETS))
    text = bytes(draw(st.lists(st.sampled_from(alphabet), max_size=200)))
    run = draw(st.integers(0, 40))
    if run:
        text += bytes([draw(st.sampled_from(alphabet))]) * run
    return text + b"\x00" * draw(st.integers(0, 9))


@st.composite
def documents(draw, text):
    """Dictionary slices interleaved with random bytes."""
    parts = []
    for _ in range(draw(st.integers(0, 8))):
        if text and draw(st.booleans()):
            start = draw(st.integers(0, len(text) - 1))
            parts.append(text[start : start + draw(st.integers(1, 48))])
        else:
            parts.append(draw(st.binary(max_size=12)))
    return b"".join(parts)


texts = st.one_of(st.just(b""), st.binary(min_size=1, max_size=1), dictionaries())


@pytest.mark.parametrize("kind", JUMP_KINDS)
@given(text=texts, data=st.data())
@settings(deadline=None)
def test_generated_parse_identity(kind, text, data):
    document = data.draw(documents(text))
    expected = reference_streams(SuffixArray(text, accelerated=False), document)
    suffix_array = engine(text, kind)
    assert suffix_array.factorize_stream(document) == expected
    assert list(suffix_array.match_stream(document)) == list(zip(*expected))
    assert reference_streams(suffix_array, document) == expected


# ----------------------------------------------------------------------
# Degenerate documents
# ----------------------------------------------------------------------
def test_empty_document():
    suffix_array = SuffixArray(b"abracadabra")
    assert suffix_array.factorize_stream(b"") == ([], [])
    assert list(suffix_array.match_stream(b"")) == []


def test_all_literal_stream():
    """Every query byte absent from the dictionary: pure literal output."""
    text = b"abcdefgh" * 8
    query = b"XYZ" * 20 + b"\x01\x02"
    assert_engine_identical(text, query)
    positions, lengths = SuffixArray(text).factorize_stream(query)
    assert lengths == [0] * len(query)
    assert positions == list(query)


def test_single_byte_documents():
    for text in (b"a", b"ab", b"abcdefg"):
        for query in (b"a", b"z", b"ab", text):
            assert_engine_identical(text, query)


# ----------------------------------------------------------------------
# Trailing-zero boundary keys (the PR-2 regression shapes)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("zeros", [1, 2, 3, 4, 7, 8, 9])
def test_trailing_zeros_in_dictionary(zeros):
    text = b"abcdefgh" + b"\x00" * zeros
    for query in (b"abcdefgh", b"abcd", b"abc\x00", b"h" + b"\x00" * 4, b"\x00" * 3):
        assert_engine_identical(text, query)


@pytest.mark.parametrize("zeros", [1, 2, 3, 4, 7, 8, 9])
def test_trailing_zeros_in_query(zeros):
    text = b"the quick brown fox\x00jumps"
    for stem in (b"quick", b"fox", b"the quick brown fox"):
        assert_engine_identical(text, stem + b"\x00" * zeros)


def test_zero_windows_route_to_fallback_identically():
    """Windows containing a real zero byte take the per-character fallback
    inside the engine; the parse must not change."""
    text = b"ab\x00cd\x00\x00ef" * 6
    for query in (b"ab\x00cd", b"\x00\x00ef", b"ab\x00cd\x00\x00efab", text):
        assert_engine_identical(text, query)


# ----------------------------------------------------------------------
# Both jump-index kinds with adversarial random streams
# ----------------------------------------------------------------------
def test_randomized_equivalence_across_modes():
    rng = random.Random(20260808)
    alphabet = b"abcdef <html>XY\x00"
    for trial in range(25):
        text = bytes(rng.choices(alphabet, k=rng.randint(1, 300)))
        query = bytes(rng.choices(alphabet, k=rng.randint(0, 120)))
        assert_engine_identical(text, query)


def test_forced_large_text_configuration():
    """The compact-index configuration parses identically."""
    rng = random.Random(7)
    text = bytes(rng.choices(b"abcdef <html>", k=600))
    suffix_array = engine(text, "compact")
    reference = SuffixArray(text, accelerated=False)
    for _ in range(10):
        query = bytes(rng.choices(b"abcdef <html>XY\x00", k=rng.randint(0, 90)))
        assert suffix_array.factorize_stream(query) == reference_streams(
            reference, query
        )
    assert suffix_array.jump_index_kind == "compact"


def test_longest_match_parity_at_every_cursor():
    rng = random.Random(99)
    text = bytes(rng.choices(b"abcdefgh", k=250))
    query = bytes(rng.choices(b"abcdefghXY", k=120))
    faithful = SuffixArray(text, accelerated=False)
    suffix_array = SuffixArray(text)
    for cursor in range(len(query)):
        expected = faithful.longest_match(query, cursor)
        assert suffix_array.longest_match(query, cursor) == expected, cursor


# ----------------------------------------------------------------------
# Entry-point equivalence
# ----------------------------------------------------------------------
def test_match_stream_equals_factorize_stream():
    rng = random.Random(3)
    text = bytes(rng.choices(b"lorem ipsum dolor", k=400))
    query = bytes(rng.choices(b"lorem ipsum dolor sitXZ", k=200))
    suffix_array = SuffixArray(text)
    positions, lengths = suffix_array.factorize_stream(query)
    assert list(suffix_array.match_stream(query)) == list(zip(positions, lengths))


def test_iter_factors_matches_factorize_streams():
    dictionary = RlzDictionary(b"the quick brown fox jumps over the lazy dog " * 20)
    factorizer = RlzFactorizer(dictionary)
    document = b"the lazy fox jumps QUICKLY over the brown dog \x00\x00 end"
    positions, lengths = factorizer.factorize_streams(document)
    factors = list(factorizer.iter_factors(document))
    assert [f.position for f in factors] == positions
    assert [f.length for f in factors] == lengths


# ----------------------------------------------------------------------
# Batch probing (compact index, literal-heavy regime)
# ----------------------------------------------------------------------
def test_batch_probing_engages_and_stays_identical():
    """A long literal-heavy stream drives the stride EWMA under the cutoff,
    so cold probes go through ``get_batch`` — and the parse is unchanged."""
    text = b"abcdefgh" * 40
    suffix_array = engine(text, "compact")
    query = bytes(random.Random(5).choices(b"XYZW", k=400)) + b"abcdefgh"
    expected = reference_streams(SuffixArray(text, accelerated=False), query)
    before = suffix_array.probe_cache_info()
    assert suffix_array.factorize_stream(query) == expected
    after = suffix_array.probe_cache_info()
    batched = (after["batch_hits"] + after["batch_misses"]) - (
        before["batch_hits"] + before["batch_misses"]
    )
    assert batched > 0
