"""Byte-identity battery for the greedy parse.

The greedy parse (one lcp-aware binary search per factor over the whole
suffix array) is written twice, and each must produce exactly the parse of
the paper's per-character algorithm (``longest_match``, the oracle)
through ``factorize_stream`` and ``match_stream``:

* ``python``: the pure-Python port, ``repro.suffix.suffix_array.
  greedy_parse``, run with the native kernel forced off;
* ``native``: the C factorize kernel (``repro/core/rlz_factorize.c``).

The hand-picked cases below are the adversarial shapes: empty documents
and dictionaries, all-literal streams, dictionaries shorter than 8 bytes,
trailing zeros, zero-byte windows and long runs; the generated property
covers the rest.
"""

import random
import sys
import threading
import time
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import RlzDictionary, RlzFactorizer, native
from repro.suffix import SuffixArray

NATIVE = native.factorize_kernel() is not None
requires_kernel = pytest.mark.skipif(
    not NATIVE, reason="the native factorize kernel is unavailable (no C compiler?)"
)
IMPLEMENTATIONS = ("python",) + (("native",) if NATIVE else ())


def implementation(kind):
    """Run the block on ``kind``: the native kernel, or the Python port
    (the kernel forced off)."""
    return nullcontext() if kind == "native" else native.python_match_engine()


def reference_streams(suffix_array, query):
    """The per-factor parse via ``longest_match`` (the per-character
    refinement, whatever ``accelerated`` says)."""
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


def assert_engine_identical(text, query):
    """Both parse entry points equal the faithful parse, for every
    implementation."""
    expected = reference_streams(SuffixArray(text, accelerated=False), query)
    for kind in IMPLEMENTATIONS:
        with implementation(kind):
            suffix_array = SuffixArray(text)
            assert suffix_array.factorize_stream(query) == expected, kind
            assert list(suffix_array.match_stream(query)) == list(zip(*expected)), kind
            assert native.factorizer_name() == kind


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


@pytest.mark.parametrize("kind", ["python", pytest.param("native", marks=requires_kernel)])
@given(text=texts, data=st.data())
@settings(deadline=None)
def test_generated_parse_identity(kind, text, data):
    document = data.draw(documents(text))
    expected = reference_streams(SuffixArray(text, accelerated=False), document)
    with implementation(kind):
        suffix_array = SuffixArray(text)
        assert suffix_array.factorize_stream(document) == expected
        assert list(suffix_array.match_stream(document)) == list(zip(*expected))
        assert native.factorizer_name() == kind


# ----------------------------------------------------------------------
# Degenerate documents
# ----------------------------------------------------------------------
def test_empty_document():
    for kind in IMPLEMENTATIONS:
        with implementation(kind):
            suffix_array = SuffixArray(b"abracadabra")
            assert suffix_array.factorize_stream(b"") == ([], [])
            assert list(suffix_array.match_stream(b"")) == []


def test_all_literal_stream():
    """Every query byte absent from the dictionary: pure literal output."""
    text = b"abcdefgh" * 8
    query = b"XYZ" * 20 + b"\x01\x02"
    assert_engine_identical(text, query)
    for kind in IMPLEMENTATIONS:
        with implementation(kind):
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
    """Real zero bytes in the dictionary and the query are ordinary bytes
    to the greedy parse; the parse must not change."""
    text = b"ab\x00cd\x00\x00ef" * 6
    for query in (b"ab\x00cd", b"\x00\x00ef", b"ab\x00cd\x00\x00efab", text):
        assert_engine_identical(text, query)


# ----------------------------------------------------------------------
# Adversarial random streams
# ----------------------------------------------------------------------
def test_randomized_equivalence_across_modes():
    rng = random.Random(20260808)
    alphabet = b"abcdef <html>XY\x00"
    for trial in range(25):
        text = bytes(rng.choices(alphabet, k=rng.randint(1, 300)))
        query = bytes(rng.choices(alphabet, k=rng.randint(0, 120)))
        assert_engine_identical(text, query)


def test_longest_match_parity_at_every_cursor():
    """The first factor of the parse of every query suffix is the oracle's
    longest match there, position included (the leftmost-rank tie-break)."""
    rng = random.Random(99)
    text = bytes(rng.choices(b"abcdefgh", k=250))
    query = bytes(rng.choices(b"abcdefghXY", k=120))
    faithful = SuffixArray(text, accelerated=False)
    for kind in IMPLEMENTATIONS:
        with implementation(kind):
            suffix_array = SuffixArray(text)
            for cursor in range(len(query)):
                position, length = faithful.longest_match(query, cursor)
                expected = (position, length) if length else (query[cursor], 0)
                first = next(suffix_array.match_stream(query[cursor:]))
                assert first == expected, (kind, cursor)


# ----------------------------------------------------------------------
# Entry-point equivalence
# ----------------------------------------------------------------------
def test_match_stream_equals_factorize_stream():
    rng = random.Random(3)
    text = bytes(rng.choices(b"lorem ipsum dolor", k=400))
    query = bytes(rng.choices(b"lorem ipsum dolor sitXZ", k=200))
    for kind in IMPLEMENTATIONS:
        with implementation(kind):
            suffix_array = SuffixArray(text)
            positions, lengths = suffix_array.factorize_stream(query)
            factors = list(suffix_array.match_stream(query))
            assert factors == list(zip(positions, lengths))


def test_iter_factors_matches_factorize_streams():
    text = b"the quick brown fox jumps over the lazy dog " * 20
    document = b"the lazy fox jumps QUICKLY over the brown dog \x00\x00 end"
    for kind in IMPLEMENTATIONS:
        with implementation(kind):
            factorizer = RlzFactorizer(RlzDictionary(text))
            positions, lengths = factorizer.factorize_streams(document)
            factors = list(factorizer.iter_factors(document))
        assert [f.position for f in factors] == positions
        assert [f.length for f in factors] == lengths


# ----------------------------------------------------------------------
# Edge cases on both implementations; the kernel's input checks, engine
# reporting and GIL release
# ----------------------------------------------------------------------
_EDGE_CASES = [
    (b"", b"abc"),  # empty dictionary: all literals
    (b"", b""),
    (b"a", b"aaab"),  # one-byte dictionary
    (b"a", b""),
    (b"ab\x00cd\x00\x00ef" * 3, b"\x00\x00ef\x00ab\x00c"),  # embedded NULs
    (b"abcdefgh\x00\x00\x00", b"h\x00\x00\x00\x00"),  # trailing zeros (dictionary)
    (b"the quick brown fox", b"quick\x00\x00\x00\x00\x00\x00\x00\x00\x00"),
    (b"z" * 64, b"z" * 200),  # one repeated byte
    (b"z" * 64, b"zzzyzz"),
    (b"abcdefgh", b"bcd"),  # documents shorter than 8 bytes
    (b"abcdefgh", b"h"),
    (bytes(range(256)), bytes(range(255, -1, -1))),
]


def assert_edge_case(kind, text, query):
    expected = reference_streams(SuffixArray(text, accelerated=False), query)
    with implementation(kind):
        suffix_array = SuffixArray(text)
        assert native.factorizer_name() == kind
        assert suffix_array.factorize_stream(query) == expected
        assert list(suffix_array.match_stream(query)) == list(zip(*expected))


@requires_kernel
@pytest.mark.parametrize("text,query", _EDGE_CASES)
def test_native_edge_cases(text, query):
    assert_edge_case("native", text, query)


@pytest.mark.parametrize("text,query", _EDGE_CASES)
def test_python_port_edge_cases(text, query):
    assert_edge_case("python", text, query)


@requires_kernel
@pytest.mark.parametrize(
    "suffix_array",
    [
        np.zeros(2, dtype=np.int64),  # too short
        np.zeros(3, dtype=np.float64),  # not integers
        np.zeros(3, dtype=np.uint64),  # unsigned
        np.zeros(6, dtype=np.int32),  # the right size, the wrong width
        np.zeros(3, dtype=">i8"),  # byte-swapped
        np.zeros(6, dtype=np.int64)[::2],  # strided
    ],
)
def test_native_kernel_rejects_a_malformed_suffix_array(suffix_array):
    kernel = native.factorize_kernel()
    with pytest.raises((ValueError, BufferError)):
        kernel(b"abc", suffix_array, b"abc")


@requires_kernel
def test_native_engine_builds_no_python_state():
    """Neither engine builds state beyond the suffix array, and the stats
    say which engine ran."""
    text = b"the quick brown fox jumps over the lazy dog " * 8
    with implementation("native"):
        suffix_array = SuffixArray(text)
        suffix_array.prepare()
        suffix_array.factorize_stream(b"the lazy dog jumps")
        stats = suffix_array.acceleration_stats()
    assert stats == {
        "engine": "native",
        "suffix_array_nbytes": 8 * len(text),
        "text_bytes": len(text),
    }
    assert native.factorizer_name() == "native"
    with implementation("python"):
        assert suffix_array.acceleration_stats()["engine"] == "python"
        assert native.factorizer_name() == "python"
    reference = SuffixArray(b"abc", accelerated=False)
    assert reference.acceleration_stats()["engine"] == "python"


@requires_kernel
def test_native_kernel_releases_the_gil_while_it_parses():
    """A Python thread keeps running while one long parse is in the kernel."""
    rng = random.Random(11)
    text = bytes(rng.choices(b"abcdefgh", k=4096))
    query = bytes(rng.choices(b"abcdefgh", k=1 << 21))
    kernel = native.factorize_kernel()
    suffix_array = SuffixArray(text)
    running, stop = threading.Event(), threading.Event()
    counter = [0]

    def spin():
        running.set()
        while not stop.is_set():
            counter[0] += 1
            time.sleep(0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(10.0)
    thread = threading.Thread(target=spin)
    try:
        thread.start()
        assert running.wait(timeout=10)
        before = counter[0]
        positions, lengths = kernel(text, suffix_array.array, query)
        advanced = counter[0] - before
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert sum(length or 1 for length in lengths) == len(query)
    assert advanced > 0
