"""Tests for the search tokenizer.

Beyond basic tokenisation, the hardening battery covers the damaged
markup real web archives contain (unterminated tags, nested tags, bare
``<`` used as text) and the offset contract snippet serving relies on:
``strip_markup`` is length-preserving, so the character offsets
:func:`tokenize_with_offsets` reports index into the *original* text.
"""

from repro.search import (
    STOPWORDS,
    strip_markup,
    tokenize_text,
    tokenize_with_offsets,
)


def test_strip_markup_removes_tags():
    assert strip_markup("<p>Hello <b>world</b></p>").split() == ["Hello", "world"]


def test_tokenize_lowercases_and_splits():
    assert tokenize_text("Compression Ratio 42") == ["compression", "ratio", "42"]


def test_tokenize_removes_stopwords_by_default():
    terms = tokenize_text("the quick brown fox and the lazy dog")
    assert "the" not in terms
    assert "and" not in terms
    assert "quick" in terms


def test_tokenize_can_keep_stopwords():
    terms = tokenize_text("the quick fox", remove_stopwords=False)
    assert terms[0] == "the"


def test_tokenize_ignores_markup_attributes():
    terms = tokenize_text('<a href="http://example.gov/page.html" class="nav">Budget report</a>')
    assert "budget" in terms and "report" in terms
    assert "href" not in terms


def test_stopwords_are_lowercase():
    assert all(word == word.lower() for word in STOPWORDS)


def test_empty_input():
    assert tokenize_text("") == []
    assert tokenize_text("<br/>") == []


# ----------------------------------------------------------------------
# Damaged markup (truncated and malformed real-web documents)
# ----------------------------------------------------------------------
def test_unterminated_tag_is_stripped_to_end_of_text():
    # A truncated document that ends mid-tag: the attribute soup must not
    # leak into the vocabulary.
    terms = tokenize_text('budget report <a href="http://example.gov/page')
    assert terms == ["budget", "report"]


def test_unterminated_closing_and_bang_tags_are_stripped():
    assert tokenize_text("summary </div class=x") == ["summary"]
    assert tokenize_text("summary <!-- truncated comment") == ["summary"]


def test_nested_tags_are_stripped_innermost_first():
    assert tokenize_text("before <a <b>> after") == ["before", "after"]
    assert tokenize_text("<<i>>text<</i>>") == ["text"]


def test_bare_less_than_as_text_is_preserved():
    # With no closing ``>`` anywhere after it, a bare ``<`` is text, not
    # the start of a tag (``<`` followed by a space is not a tag name).
    assert strip_markup("5 < 6") == "5 < 6"
    assert tokenize_text("5 < 6") == ["5", "6"]
    assert tokenize_text("7 > 2") == ["7", "2"]


def test_unicode_text_tokenizes():
    terms = tokenize_text("<p>café économie zone 42</p>")
    # Terms are ASCII alphanumeric runs; accented characters split them
    # but never crash the tokenizer or corrupt following terms.
    assert "zone" in terms and "42" in terms


def test_empty_document_with_only_markup():
    assert tokenize_text("<html><body></body></html>") == []
    assert tokenize_with_offsets("<html><body></body></html>") == []


# ----------------------------------------------------------------------
# The offset contract snippet serving relies on
# ----------------------------------------------------------------------
def test_strip_markup_preserves_length_and_offsets():
    text = '<p>Hello <b class="x">world</b></p> tail <a href='
    stripped = strip_markup(text)
    assert len(stripped) == len(text)
    assert stripped.index("Hello") == text.index("Hello")
    assert stripped.index("world") == text.index("world")
    assert stripped.index("tail") == text.index("tail")


def test_tokenize_with_offsets_points_into_original_text():
    text = '<a href="nav.html">Budget</a> Report <i>2011</i>'
    pairs = tokenize_with_offsets(text)
    assert [term for term, _ in pairs] == ["budget", "report", "2011"]
    for term, offset in pairs:
        assert text[offset : offset + len(term)].lower() == term


def test_tokenize_with_offsets_survives_offset_shifting_case_folds():
    # İ lower-cases to two characters under str.lower(); the offset
    # preserving fold leaves it alone so later offsets stay valid.
    text = "İstanbul report"
    pairs = tokenize_with_offsets(text)
    terms = dict(pairs)
    assert terms["report"] == text.index("report")


def test_tokenize_with_offsets_agrees_with_tokenize_text():
    text = '<p>The quick <b>brown</b> fox — and the lazy dog</p>'
    assert [term for term, _ in tokenize_with_offsets(text)] == tokenize_text(text)


def test_tokenize_text_agrees_on_offset_shifting_case_folds():
    # Shrunk from the PostingsStore/InvertedIndex parity property: İ used
    # to fold to "i" + U+0307 in tokenize_text only, so the in-memory index
    # counted a term "i" the postings builder never saw, and the two
    # disagreed on document lengths and therefore on every score.
    text = "alpha İ beta"
    assert tokenize_text(text) == ["alpha", "beta"]
    assert [term for term, _ in tokenize_with_offsets(text)] == tokenize_text(text)
