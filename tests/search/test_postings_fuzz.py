"""Untrusted sidecar bytes: a postings index that passes its checksums but
is malformed must be refused at open with a typed error.

A sidecar is read from disk by every server, so a damaged or hostile
``.idx`` must never escape :meth:`PostingsStore.open` as ``KeyError``,
``IndexError``, ``UnicodeDecodeError`` or ``MemoryError``, and must never
open into a store that ranks wrongly.  The fuzz property mutates the
postings and doc-length sections and re-seals every CRC, so each mutation
reaches the structural checks behind the checksums.  The named tests
below it pin the cases the property found or that the layout relies on.

Sections are assembled here from the documented layout (see
``repro.search.serving.postings``), not with the writer under test.
"""

from __future__ import annotations

import struct
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CorruptArchiveError, StorageError
from repro.search import PostingsStore, build_postings

_COUNTS = struct.Struct("<QQQ")
_SECTION = struct.Struct("<QI")
_HEAD_SIZE = 8 + _COUNTS.size + 2 * _SECTION.size + 4


def _uvarint(value):
    out = bytearray()
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _seal(postings, doclens, doc_count, total_doc_length, term_count):
    """A sidecar around the given sections, with every CRC correct."""
    header = b"RPIX0001" + _COUNTS.pack(doc_count, total_doc_length, term_count)
    header += _SECTION.pack(len(postings), zlib.crc32(postings))
    header += _SECTION.pack(len(doclens), zlib.crc32(doclens))
    return header + struct.pack("<I", zlib.crc32(header)) + postings + doclens


def _postings_section(terms):
    """``terms``: ``[(term_bytes, [(delta, tf, offset), ...]), ...]``."""
    out = bytearray()
    for raw, postings in terms:
        out += _uvarint(len(raw)) + raw + _uvarint(len(postings))
        for delta, tf, offset in postings:
            out += _uvarint(delta) + _uvarint(tf) + _uvarint(offset)
    return bytes(out)


def _doclens_section(entries, count=None):
    """``entries``: ``[(delta, length), ...]``."""
    out = bytearray(_uvarint(len(entries) if count is None else count))
    for delta, length in entries:
        out += _uvarint(delta) + _uvarint(length)
    return bytes(out)


def _sidecar(terms, entries):
    """A sealed sidecar whose header counts agree with its sections."""
    return _seal(
        _postings_section(terms),
        _doclens_section(entries),
        len(entries),
        sum(length for _, length in entries),
        len(terms),
    )


def _open(tmp_path, blob):
    path = tmp_path / "fuzz.idx"
    path.write_bytes(blob)
    return PostingsStore.open(path)


# Two documents, ids 1 and 4, lengths 3 and 2.
_DOCS = [(1, 3), (3, 2)]


def test_hand_assembled_sidecar_opens_and_ranks(tmp_path):
    store = _open(
        tmp_path,
        _sidecar([(b"alpha", [(1, 2, 0), (3, 1, 5)]), (b"beta", [(4, 1, 9)])], _DOCS),
    )
    assert store.postings("alpha") == [(1, 2, 0), (4, 1, 5)]
    assert [hit.doc_id for hit in store.search("alpha beta")] == [4, 1]


# ----------------------------------------------------------------------
# Named regressions: CRC-valid, structurally malformed
# ----------------------------------------------------------------------
def test_posting_for_a_document_missing_from_the_doc_table(tmp_path):
    # Used to open, then raise KeyError from search.
    blob = _sidecar([(b"alpha", [(2, 1, 0)])], _DOCS)
    with pytest.raises(StorageError, match="does not hold"):
        _open(tmp_path, blob)


def test_zero_doc_id_delta_inside_a_posting_list(tmp_path):
    # Used to open, then rank document 1 twice with a wrong score.
    blob = _sidecar([(b"alpha", [(1, 1, 0), (0, 1, 0)])], _DOCS)
    with pytest.raises(StorageError, match="strictly ascending"):
        _open(tmp_path, blob)


def test_non_utf8_term(tmp_path):
    # Used to escape as UnicodeDecodeError.
    blob = _sidecar([(b"\xff\xfe", [(1, 1, 0)])], _DOCS)
    with pytest.raises(StorageError, match="UTF-8"):
        _open(tmp_path, blob)


def test_terms_out_of_order_or_repeated(tmp_path):
    for terms in (
        [(b"beta", [(1, 1, 0)]), (b"alpha", [(1, 1, 0)])],
        [(b"alpha", [(1, 1, 0)]), (b"alpha", [(4, 1, 0)])],
    ):
        with pytest.raises(StorageError, match="terms are not strictly ascending"):
            _open(tmp_path, _sidecar(terms, _DOCS))


def test_zero_term_frequency(tmp_path):
    blob = _sidecar([(b"alpha", [(1, 0, 0)])], _DOCS)
    with pytest.raises(StorageError, match="term frequency 0"):
        _open(tmp_path, blob)


def test_empty_posting_list(tmp_path):
    blob = _sidecar([(b"alpha", [])], _DOCS)
    with pytest.raises(StorageError, match="postings cannot fit"):
        _open(tmp_path, blob)


def test_doc_table_ids_not_ascending(tmp_path):
    blob = _sidecar([(b"alpha", [(1, 1, 0)])], [(1, 3), (0, 2)])
    with pytest.raises(StorageError, match="doc ids are not strictly ascending"):
        _open(tmp_path, blob)


def test_doc_table_ids_past_63_bits(tmp_path):
    blob = _sidecar([(b"alpha", [(1, 1, 0)])], [(1, 3), (2**62, 2), (2**62, 1)])
    with pytest.raises(StorageError, match="doc ids are not strictly ascending"):
        _open(tmp_path, blob)


def test_posting_doc_ids_that_wrap_past_64_bits(tmp_path):
    # The deltas sum to 1 mod 2**64: a wrap must not alias document 1.
    postings = [(2**62, 1, 0)] * 4 + [(1, 1, 0)]
    blob = _sidecar([(b"alpha", postings)], _DOCS)
    with pytest.raises(StorageError):
        _open(tmp_path, blob)


def test_varint_longer_than_63_bits(tmp_path):
    blob = _sidecar([(b"alpha", [(1, 2**63, 0)])], _DOCS)
    with pytest.raises(StorageError, match="overflows"):
        _open(tmp_path, blob)


_ALPHA = _postings_section([(b"alpha", [(1, 1, 0)])])


def test_term_count_past_the_section(tmp_path):
    blob = _seal(_ALPHA, _doclens_section(_DOCS), 2, 5, 2**60)
    with pytest.raises(StorageError, match="terms cannot fit"):
        _open(tmp_path, blob)


def test_document_frequency_past_the_section(tmp_path):
    postings = _uvarint(5) + b"alpha" + _uvarint(2**40) + _ALPHA[7:]
    blob = _seal(postings, _doclens_section(_DOCS), 2, 5, 1)
    with pytest.raises(StorageError, match="postings cannot fit"):
        _open(tmp_path, blob)


def test_doc_count_past_the_section(tmp_path):
    # The header agrees with the table's own count; both are too large.
    blob = _seal(_ALPHA, _doclens_section(_DOCS, count=2**50), 2**50, 5, 1)
    with pytest.raises(StorageError, match="documents cannot fit"):
        _open(tmp_path, blob)


def test_term_length_past_the_section(tmp_path):
    blob = _seal(_uvarint(2**40) + b"alpha", _doclens_section(_DOCS), 2, 5, 1)
    with pytest.raises(StorageError, match="truncated term"):
        _open(tmp_path, blob)


# ----------------------------------------------------------------------
# The fuzz property
# ----------------------------------------------------------------------
_CORPUS = [
    (2, "alpha beta alpha gamma"),
    (5, "beta café naïve zone"),
    (9, "gamma delta <b>epsilon</b> alpha"),
    (130, "x1 zz beta " * 20),
]
_QUERIES = ["alpha", "beta gamma", "caf zone x1 x1", "zz epsilon nomatch"]


def _sections(blob):
    doc_count, total, term_count = _COUNTS.unpack_from(blob, 8)
    postings_len, _ = _SECTION.unpack_from(blob, 8 + _COUNTS.size)
    postings = blob[_HEAD_SIZE : _HEAD_SIZE + postings_len]
    doclens = blob[_HEAD_SIZE + postings_len :]
    return [doc_count, total, term_count], postings, doclens


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    path = build_postings(_CORPUS).write(tmp_path_factory.mktemp("fuzz") / "base.idx")
    return path.read_bytes()


_position = st.integers(min_value=0, max_value=2**16)
_mutation = st.one_of(
    st.tuples(st.just("flip"), _position, st.integers(1, 255)),
    st.tuples(st.just("insert"), _position, st.binary(min_size=1, max_size=12)),
    st.tuples(st.just("varint"), _position, st.integers(0, 2**70).map(_uvarint)),
    st.tuples(st.just("delete"), _position, st.integers(1, 16)),
    st.tuples(st.just("truncate"), _position, st.just(None)),
)
_counts = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2**64 - 1)), max_size=1
)


def _mutate(section, mutation):
    kind, where, argument = mutation
    section = bytearray(section)
    where = where % (len(section) + 1)
    if kind == "flip" and where < len(section):
        section[where] ^= argument
    elif kind in ("insert", "varint"):
        section[where:where] = argument
    elif kind == "delete":
        del section[where : where + argument]
    elif kind == "truncate":
        del section[where:]
    return bytes(section)


@settings(deadline=None)
@given(
    postings_mutations=st.lists(_mutation, max_size=3),
    doclens_mutations=st.lists(_mutation, max_size=2),
    count_changes=_counts,
)
def test_checksummed_mutations_raise_only_typed_errors(
    tmp_path_factory, pristine, postings_mutations, doclens_mutations, count_changes
):
    counts, postings, doclens = _sections(pristine)
    for mutation in postings_mutations:
        postings = _mutate(postings, mutation)
    for mutation in doclens_mutations:
        doclens = _mutate(doclens, mutation)
    for index, value in count_changes:
        counts[index] = value
    blob = _seal(postings, doclens, *counts)
    path = tmp_path_factory.mktemp("fuzz") / "mutated.idx"
    path.write_bytes(blob)

    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        store = PostingsStore.open(path)
    except (StorageError, CorruptArchiveError):
        return
    finally:
        _, peak = tracemalloc.get_traced_memory()
        if not tracing:
            tracemalloc.stop()
        # Nothing is sized by a count before the count is checked against
        # the bytes that would have to hold it.
        assert peak < (1 << 20) + 256 * len(blob)

    # A sidecar that opens must serve: every call answers, and every
    # posting names a document the doc-length table holds.
    for query in _QUERIES:
        hits = store.search(query, top_k=5)
        assert [hit.score for hit in hits] == sorted(
            (hit.score for hit in hits), reverse=True
        )
        store.term_stats(query)
        for term in query.split():
            for doc_id, tf, _ in store.postings(term):
                assert tf > 0
                store.doc_length(doc_id)
