"""The persistent posting-list index behind search serving.

What must hold, because the serving stack leans on it:

* the on-disk sidecar round-trips exactly — statistics, postings and
  rankings are identical before a write and after an open;
* corruption is *loud*: a flipped bit in any section raises
  :class:`~repro.errors.CorruptArchiveError`, truncation raises
  :class:`~repro.errors.StorageError`, never a silently wrong ranking;
* scoring agrees with :class:`repro.search.InvertedIndex` score-for-score
  (the sharded SEARCH path promises its merged ranking equals a single
  local index, which is only true if both ends compute identical floats);
* the global-stats mode makes per-shard scores equal the full-collection
  scores — the heart of the exact sharded fan-out;
* tie-breaking is deterministic (ascending doc id) across every ranked
  path: ``rank_scores``, ``InvertedIndex.search``/``search_many`` and
  ``PostingsStore.search``;
* the sidecar bytes are pinned: the writer's output over ``gov_small``
  has a recorded SHA-256, so a layout change cannot fork the format.

The generated properties take their example budget from the hypothesis
profile (``--hypothesis-profile=large`` raises it; see ``conftest.py``).
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CorruptArchiveError, SearchError, StorageError
from repro.search import (
    GlobalStats,
    InvertedIndex,
    PostingsStore,
    build_postings,
    index_sidecar_path,
    rank_scores,
    tokenize_text,
    write_postings,
)
from repro.search.tokenizer import tokenize_with_offsets


def _documents(collection):
    return [(document.doc_id, document.text()) for document in collection]


def _queries(collection):
    """A few queries made of terms that actually occur in the collection."""
    counts = {}
    for document in collection:
        for term in set(tokenize_text(document.text())):
            counts[term] = counts.get(term, 0) + 1
    common = sorted(counts, key=lambda term: (-counts[term], term))
    rare = sorted(counts, key=lambda term: (counts[term], term))
    return [
        common[0],
        " ".join(common[:3]),
        f"{common[0]} {rare[0]}",
        " ".join(rare[:2]),
        f"{common[1]} {common[1]}",  # duplicated term scores twice
        "zzz-no-such-term-zzz",
    ]


@pytest.fixture(scope="module")
def built(gov_small):
    return build_postings(_documents(gov_small))


@pytest.fixture(scope="module")
def reference(gov_small):
    return InvertedIndex.build(gov_small)


# ----------------------------------------------------------------------
# Round-trip persistence
# ----------------------------------------------------------------------
def test_sidecar_path_naming(tmp_path):
    assert index_sidecar_path(tmp_path / "a.rlz") == tmp_path / "a.rlz.idx"


def test_write_open_round_trip(tmp_path, built, gov_small):
    path = write_postings(_documents(gov_small), tmp_path / "gov.idx")
    reopened = PostingsStore.open(path)
    assert reopened.num_documents == built.num_documents
    assert reopened.num_terms == built.num_terms
    assert reopened.total_doc_length == built.total_doc_length
    for document in gov_small:
        assert reopened.doc_length(document.doc_id) == built.doc_length(
            document.doc_id
        )
    for term in sorted(set(tokenize_text(next(iter(gov_small)).text()))):
        assert list(reopened.postings(term)) == list(built.postings(term))
    for query in _queries(gov_small):
        assert reopened.search(query, top_k=10) == built.search(query, top_k=10)


def test_bytes_and_str_documents_index_identically(tmp_path):
    text_docs = [(1, "the quick brown fox"), (2, "lazy dogs sleep")]
    byte_docs = [(doc_id, text.encode("utf-8")) for doc_id, text in text_docs]
    a = build_postings(text_docs)
    b = build_postings(byte_docs)
    assert a.search("quick fox dogs") == b.search("quick fox dogs")


#: SHA-256 of ``write_postings`` over ``gov_small``, recorded from the
#: dict-of-lists writer the columnar layout replaced.
GOV_SMALL_SIDECAR_SHA256 = (
    "8e683ff912b8ea34c2dad4fd8421d56f421c88769097dd8de5781a8c13d643a5"
)


def test_sidecar_bytes_match_the_pinned_digest(tmp_path, gov_small):
    path = write_postings(_documents(gov_small), tmp_path / "gov.idx")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOV_SMALL_SIDECAR_SHA256
    rewritten = PostingsStore.open(path).write(tmp_path / "again.idx")
    assert rewritten.read_bytes() == path.read_bytes()


def test_empty_index_round_trips(tmp_path):
    store = PostingsStore.open(build_postings([]).write(tmp_path / "empty.idx"))
    assert (store.num_documents, store.num_terms, store.total_doc_length) == (0, 0, 0)
    assert store.search("anything") == []
    assert store.postings("anything") == []


def test_doc_length_of_an_unindexed_document_raises_key_error(built):
    with pytest.raises(KeyError):
        built.doc_length(10**9)


def test_write_is_atomic_no_temp_left_behind(tmp_path, built):
    path = built.write(tmp_path / "atomic.idx")
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


# ----------------------------------------------------------------------
# Corruption is loud
# ----------------------------------------------------------------------
def _flip(path, offset):
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0xFF
    path.write_bytes(bytes(blob))


def test_flipped_header_bit_is_detected(tmp_path, built):
    path = built.write(tmp_path / "header.idx")
    _flip(path, len(b"RPIX0001") + 3)  # inside the counts block
    with pytest.raises(CorruptArchiveError):
        PostingsStore.open(path)


def test_flipped_postings_bit_is_detected(tmp_path, built):
    path = built.write(tmp_path / "postings.idx")
    head = len(b"RPIX0001") + 24 + 2 * 12 + 4
    _flip(path, head + 5)
    with pytest.raises(CorruptArchiveError):
        PostingsStore.open(path)


def test_flipped_doclens_bit_is_detected(tmp_path, built):
    path = built.write(tmp_path / "doclens.idx")
    _flip(path, path.stat().st_size - 2)
    with pytest.raises(CorruptArchiveError):
        PostingsStore.open(path)


def test_truncated_file_is_detected(tmp_path, built):
    path = built.write(tmp_path / "truncated.idx")
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 7])
    with pytest.raises((StorageError, CorruptArchiveError)):
        PostingsStore.open(path)


def test_not_an_index_is_detected(tmp_path):
    path = tmp_path / "garbage.idx"
    path.write_bytes(b"definitely not a postings index, far too short? no.")
    with pytest.raises(StorageError):
        PostingsStore.open(path)


# ----------------------------------------------------------------------
# Build validation
# ----------------------------------------------------------------------
def test_negative_doc_id_rejected():
    with pytest.raises(SearchError):
        build_postings([(-1, "nope")])


def test_duplicate_doc_id_rejected():
    with pytest.raises(SearchError):
        build_postings([(7, "once"), (7, "twice")])


def test_top_k_must_be_positive(built):
    with pytest.raises(SearchError):
        built.search("anything", top_k=0)


def test_empty_query_returns_nothing(built):
    assert built.search("") == []
    assert built.search("the of and") == []  # stopwords only


# ----------------------------------------------------------------------
# Scoring parity with the in-memory index
# ----------------------------------------------------------------------
def test_scores_equal_inverted_index_exactly(built, reference, gov_small):
    for query in _queries(gov_small):
        expected = reference.search(query, top_k=15)
        actual = built.search(query, top_k=15)
        assert [hit.doc_id for hit in actual] == [hit.doc_id for hit in expected]
        assert [hit.score for hit in actual] == [hit.score for hit in expected]


def test_term_stats_reports_shard_local_statistics(built, reference, gov_small):
    query = _queries(gov_small)[1]
    num_documents, total_length, frequencies = built.term_stats(query)
    assert num_documents == len(gov_small)
    assert total_length == built.total_doc_length
    assert frequencies == {
        term: reference.document_frequency(term)
        for term in set(tokenize_text(query))
    }


def test_global_stats_make_sharded_scores_exact(gov_small, reference):
    """Shard-local indexes + summed statistics == one big index, exactly."""
    documents = _documents(gov_small)
    shards = [
        build_postings(documents[index::3]) for index in range(3)
    ]
    for query in _queries(gov_small):
        # The stats-exchange leg a cluster client performs.
        num_documents = 0
        total_length = 0
        frequencies = {}
        for shard in shards:
            n, length, shard_frequencies = shard.term_stats(query)
            num_documents += n
            total_length += length
            for term, df in shard_frequencies.items():
                frequencies[term] = frequencies.get(term, 0) + df
        stats = GlobalStats(num_documents, total_length, frequencies)
        merged = []
        for shard in shards:
            merged.extend(shard.search(query, top_k=10, global_stats=stats))
        merged.sort(key=lambda hit: (-hit.score, hit.doc_id))
        expected = reference.search(query, top_k=10)
        assert [hit.doc_id for hit in merged[:10]] == [
            hit.doc_id for hit in expected
        ]
        assert [hit.score for hit in merged[:10]] == [
            hit.score for hit in expected
        ]


def test_hit_offset_is_first_occurrence_of_earliest_matching_term():
    store = build_postings(
        [
            (1, "alpha filler filler beta alpha"),
            (2, "filler filler beta"),
        ]
    )
    # doc 1 matches both terms: the anchor is alpha's first occurrence (0),
    # the minimum over matched-term first offsets.
    hits = {hit.doc_id: hit for hit in store.search("beta alpha")}
    assert hits[1].hit_offset == 0
    assert hits[2].hit_offset == len("filler filler ")


def test_hit_offsets_are_byte_offsets_in_unicode_text():
    text = "café zone éclair zone"
    store = build_postings([(1, text)])
    (posting,) = store.postings("zone")
    assert posting[2] == text.encode("utf-8").index(b"zone")


# ----------------------------------------------------------------------
# Tie-breaking determinism (regression: every ranked path agrees)
# ----------------------------------------------------------------------
TIED_TEXT = "identical content for every document here"


def test_rank_scores_breaks_ties_by_ascending_doc_id():
    ranked = rank_scores({9: 1.5, 3: 1.5, 7: 1.5, 1: 2.0}, top_k=3)
    assert [result.doc_id for result in ranked] == [1, 3, 7]


def test_inverted_index_tie_break_is_deterministic():
    index = InvertedIndex()
    for doc_id in (11, 3, 8, 5):  # insertion order must not matter
        index.add_document(doc_id, TIED_TEXT)
    results = index.search("identical content", top_k=4)
    assert [result.doc_id for result in results] == [3, 5, 8, 11]
    assert len({result.score for result in results}) == 1
    (many,) = index.search_many(["identical content"], top_k=4)
    assert many == results


def test_postings_store_tie_break_matches(tmp_path):
    store = build_postings([(doc_id, TIED_TEXT) for doc_id in (11, 3, 8, 5)])
    reopened = PostingsStore.open(store.write(tmp_path / "tied.idx"))
    for index in (store, reopened):
        results = index.search("identical content", top_k=4)
        assert [hit.doc_id for hit in results] == [3, 5, 8, 11]
        assert len({hit.score for hit in results}) == 1


# ----------------------------------------------------------------------
# Generated parity with the in-memory index
# ----------------------------------------------------------------------
_WORDS = ["alpha", "beta", "gamma", "x1", "zz", "caf", "the", "and", "naïve", "café"]
_SEPARATORS = [" ", ", ", " — ", "\n", " <b>", "</b> ", " é ", " 日本 ", " İ "]

_word = st.sampled_from(_WORDS) | st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=6
)
_document = st.lists(
    st.tuples(_word, st.sampled_from(_SEPARATORS)), max_size=12
).map(lambda parts: "".join(word + separator for word, separator in parts))
_corpus = st.lists(_document, min_size=1, max_size=8).flatmap(
    # Duplicated texts make tied scores; ids are distinct but unordered.
    lambda texts: st.lists(st.sampled_from(texts), min_size=1, max_size=10)
).flatmap(
    lambda texts: st.permutations(range(1, 3 * len(texts) + 1)).map(
        lambda ids: list(zip(ids, texts))
    )
)
_query = st.lists(
    st.sampled_from(_WORDS + ["nomatch"]) | _word, min_size=0, max_size=4
).map(" ".join)


def _first_byte_offset(text, term):
    """Byte offset of ``term``'s first occurrence as a token of ``text``."""
    for token, char_offset in tokenize_with_offsets(text):
        if token == term:
            return len(text[:char_offset].encode("utf-8"))
    return None


@settings(deadline=None)
@given(corpus=_corpus, queries=st.lists(_query, min_size=1, max_size=4))
def test_postings_search_equals_inverted_index(tmp_path_factory, corpus, queries):
    reference = InvertedIndex()
    for doc_id, text in corpus:
        reference.add_document(doc_id, text)
    built = build_postings(corpus)
    path = built.write(tmp_path_factory.mktemp("parity") / "p.idx")
    texts = dict(corpus)
    for store in (built, PostingsStore.open(path)):
        for query in queries:
            expected = reference.search(query, top_k=len(corpus))
            actual = store.search(query, top_k=len(corpus))
            assert [(hit.doc_id, hit.score) for hit in actual] == [
                (hit.doc_id, hit.score) for hit in expected
            ]
            terms = set(tokenize_text(query))
            for hit in actual:
                text = texts[hit.doc_id]
                offsets = [_first_byte_offset(text, term) for term in terms]
                assert hit.hit_offset == min(o for o in offsets if o is not None)


def test_parity_survives_offset_shifting_case_folds():
    """Shrunk from the property above: İ once tokenized differently for the
    two indexes, so their document lengths (and scores) disagreed."""
    corpus = [(1, "alpha "), (2, "alpha İ ")]
    reference = InvertedIndex()
    for doc_id, text in corpus:
        reference.add_document(doc_id, text)
    actual = build_postings(corpus).search("alpha")
    assert [(hit.doc_id, hit.score) for hit in actual] == [
        (hit.doc_id, hit.score) for hit in reference.search("alpha")
    ]


@settings(deadline=None)
@given(corpus=_corpus, query=_query, seed=st.integers(0, 2**32 - 1))
def test_summed_shard_stats_reproduce_the_single_index(corpus, query, seed):
    """A random 3-way split, scored with summed stats, ranks like one index."""
    assignment = random.Random(seed)
    parts = [[], [], []]
    for document in corpus:
        parts[assignment.randrange(3)].append(document)
    shards = [build_postings(part) for part in parts]
    num_documents, total_length, frequencies = 0, 0, {}
    for shard in shards:
        n, length, shard_frequencies = shard.term_stats(query)
        num_documents += n
        total_length += length
        for term, df in shard_frequencies.items():
            frequencies[term] = frequencies.get(term, 0) + df
    stats = GlobalStats(num_documents, total_length, frequencies)
    merged = [
        hit
        for shard in shards
        for hit in shard.search(query, top_k=len(corpus), global_stats=stats)
    ]
    merged.sort(key=lambda hit: (-hit.score, hit.doc_id))
    single = build_postings(corpus).search(query, top_k=len(corpus))
    assert merged == single
