"""Windowed partial decode: ``RlzStore.get_window`` and its cost model.

The snippet-serving path promises two things: the window's *bytes* equal
the corresponding slice of a whole-document decode (anywhere — including
straddling factor boundaries, clamped at the end, empty past the end),
and its *cost* is strictly lower — the ``decoded_bytes`` counter charges
only the factors intersecting the window, which is the measurable
evidence that partial decode pays over decode-the-document-and-slice.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PAPER_SCHEMES, PairEncoder, RlzCompressor
from repro.corpus import Document, DocumentCollection
from repro.errors import StorageError
from repro.storage import RlzStore


@pytest.fixture(scope="module")
def store(tmp_path_factory, gov_compressed):
    path = tmp_path_factory.mktemp("window") / "gov.rlz"
    RlzStore.write(gov_compressed, path)
    with RlzStore.open(path) as opened:
        yield opened


def test_window_equals_full_decode_slice(store, gov_small):
    for document in list(gov_small)[:4]:
        full = document.content
        for start in (0, 1, 7, 100, len(full) // 2, len(full) - 9):
            for length in (1, 13, 160):
                assert store.get_window(document.doc_id, start, length) == full[
                    start : start + length
                ], (document.doc_id, start, length)


def test_every_offset_round_trips_for_one_document(store, gov_small):
    """A sliding window over an entire document hits every factor edge."""
    document = next(iter(gov_small))
    full = document.content
    width = 64
    for start in range(0, len(full), 37):
        assert store.get_window(document.doc_id, start, width) == full[
            start : start + width
        ], start


def test_window_is_clamped_at_document_end(store, gov_small):
    document = next(iter(gov_small))
    full = document.content
    assert store.get_window(document.doc_id, len(full) - 5, 1000) == full[-5:]
    assert store.get_window(document.doc_id, 0, len(full) + 999) == full


def test_window_past_end_is_empty(store, gov_small):
    document = next(iter(gov_small))
    assert store.get_window(document.doc_id, len(document.content), 10) == b""
    assert store.get_window(document.doc_id, len(document.content) + 50, 10) == b""


def test_zero_length_window_is_empty(store, gov_small):
    document = next(iter(gov_small))
    assert store.get_window(document.doc_id, 10, 0) == b""


def test_negative_arguments_are_rejected(store, gov_small):
    document = next(iter(gov_small))
    with pytest.raises(StorageError):
        store.get_window(document.doc_id, -1, 10)
    with pytest.raises(StorageError):
        store.get_window(document.doc_id, 0, -1)


def test_unknown_document_is_rejected(store):
    with pytest.raises(StorageError):
        store.get_window(123456, 0, 10)


def test_window_decodes_strictly_fewer_bytes_than_full_decode(store, gov_small):
    """The acceptance-criteria counter: snippets must not pay full price."""
    document = next(iter(gov_small))
    before = store.decoded_bytes
    window = store.get_window(document.doc_id, len(document.content) // 2, 160)
    window_cost = store.decoded_bytes - before
    assert len(window) == 160
    # The charge covers at least the window itself (plus partial head/tail
    # factors) but strictly less than the whole document.
    assert window_cost >= len(window)
    assert window_cost < len(document.content)

    before = store.decoded_bytes
    full = store.get(document.doc_id)
    full_cost = store.decoded_bytes - before
    assert full_cost == len(full) == len(document.content)
    assert window_cost < full_cost


def test_whole_document_reads_charge_document_size(store, gov_small):
    documents = list(gov_small)[:3]
    before = store.decoded_bytes
    store.get_many([document.doc_id for document in documents])
    assert store.decoded_bytes - before == sum(
        len(document.content) for document in documents
    )


# ----------------------------------------------------------------------
# Every pair-coding scheme, against a factor-walk oracle
# ----------------------------------------------------------------------
def _covering_charge(lengths, start, length):
    """Bytes the covering factors of a window output, by walking the factor
    lengths one at a time (the cost ``decoded_bytes`` must charge)."""
    total = sum(factor_length or 1 for factor_length in lengths)
    end = min(start + length, total)
    if start >= end:
        return 0
    charge = running = 0
    for factor_length in lengths:
        factor_end = running + (factor_length or 1)
        if factor_end > start:
            charge += factor_end - running
        if factor_end >= end:
            return charge
        running = factor_end
    raise AssertionError("window end lies past the last factor")


@pytest.fixture(scope="module")
def mixed_collection(gov_small):
    """Dictionary text, literal-heavy bytes and an empty document."""
    rng = random.Random(3)
    noise = bytes(rng.randrange(256) for _ in range(300))
    text = [document.content for document in list(gov_small)[:3]]
    documents = [
        Document(doc_id=index, url=f"http://mixed.example/{index}", content=content)
        for index, content in enumerate(
            [text[0], noise + text[1][:900] + noise[:40] + text[2][-700:], b""]
        )
    ]
    return DocumentCollection(documents, name="mixed")


@pytest.fixture(scope="module", params=PAPER_SCHEMES + ("GV",))
def scheme_store(request, tmp_path_factory, mixed_collection, gov_dictionary):
    compressor = RlzCompressor(dictionary=gov_dictionary, scheme=request.param)
    path = tmp_path_factory.mktemp(f"window-{request.param}") / "mixed.rlz"
    RlzStore.write(compressor.compress(mixed_collection), path)
    with RlzStore.open(path) as opened:
        encoder = PairEncoder(request.param)
        lengths = {
            document.doc_id: encoder.decode_streams(
                opened._read_blob(opened.document_map.lookup(document.doc_id))
            )[1]
            for document in mixed_collection
        }
        yield opened, lengths


def _check_window(scheme_store, document, start, length):
    store, lengths = scheme_store
    before = store.decoded_bytes
    window = store.get_window(document.doc_id, start, length)
    assert window == document.content[start : start + length], (start, length)
    assert store.decoded_bytes - before == _covering_charge(
        lengths[document.doc_id], start, length
    )


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_window_matches_content_under_every_scheme(
    scheme_store, mixed_collection, data
):
    document = data.draw(st.sampled_from(list(mixed_collection)))
    size = len(document.content)
    start = data.draw(st.integers(min_value=0, max_value=size + 3))
    length = data.draw(st.integers(min_value=0, max_value=size + 3))
    _check_window(scheme_store, document, start, length)


def test_windows_straddling_literals_under_every_scheme(
    scheme_store, mixed_collection
):
    store, lengths = scheme_store
    document = mixed_collection[1]
    offset = 0
    literal_offsets = []
    for factor_length in lengths[document.doc_id]:
        if factor_length == 0:
            literal_offsets.append(offset)
        offset += factor_length or 1
    assert len(literal_offsets) > 100
    # Runs of literals, and the copy factors on either side of each run.
    for literal in literal_offsets[:: len(literal_offsets) // 12] + literal_offsets[-3:]:
        for start, length in ((literal, 1), (max(0, literal - 5), 11), (literal, 90)):
            _check_window(scheme_store, document, start, length)


def test_window_edges_under_every_scheme(scheme_store, mixed_collection):
    for document in mixed_collection:
        size = len(document.content)
        for start, length in ((size, 10), (size, 0), (0, 0), (size // 2, 0)):
            _check_window(scheme_store, document, start, length)
        _check_window(scheme_store, document, 0, size)
