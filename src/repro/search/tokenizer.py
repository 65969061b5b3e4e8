"""Tokenisation for the search-engine substrate.

The search engine exists to reproduce the paper's *query-log access pattern*
(documents requested in the order a ranked retrieval system would fetch
them), so the tokenizer is a standard lightweight web-text tokenizer: HTML
tags are stripped, text is lower-cased, and alphanumeric runs become terms.
A small stopword list keeps the index size and scoring behaviour sensible.

Tag stripping is robust to real-web markup damage: nested tags
(``<a <b>>``) are stripped innermost-first until the text is stable, and a
tag left unterminated by a truncated document (``... <a href=``) is
stripped to end-of-text so attribute soup never leaks into the vocabulary.
A bare ``<`` used as text (``5 < 6``) is left alone.  Tags are replaced by
*equal-length* runs of spaces, so character offsets in the stripped text
are valid in the original — :func:`tokenize_with_offsets` relies on this
to hand the postings builder hit positions for snippet extraction.
"""

from __future__ import annotations

import re
from typing import Iterable, List, Tuple

__all__ = ["tokenize_text", "tokenize_with_offsets", "strip_markup", "STOPWORDS"]

_TAG_PATTERN = re.compile(r"<[^<>]*>")
#: An unterminated tag open: ``<`` followed by a name/slash/bang character
#: and then no closing ``>`` before end-of-text.  The name-character
#: requirement keeps a bare ``<`` used as text (``5 < 6``) intact.
_UNTERMINATED_TAG = re.compile(r"<[/!a-zA-Z][^<>]*\Z")
_TERM_PATTERN = re.compile(r"[a-z0-9]+")

#: Minimal English stopword list (high-frequency terms that add noise to
#: BM25 scoring and bloat postings lists).
STOPWORDS = frozenset(
    """a an and are as at be by for from has he in is it its of on that the to
    was were will with this these those or not but they you your our their""".split()
)


def _blank(match: "re.Match[str]") -> str:
    return " " * len(match.group(0))


def strip_markup(text: str) -> str:
    """Remove HTML/XML tags, leaving the visible text.

    Each tag is replaced by spaces of the same length, so the result has
    exactly the length of the input and every surviving character keeps
    its original offset.  Nested tags are stripped innermost-first until
    no tag remains; a trailing unterminated tag is stripped to the end.
    """
    previous = None
    while previous != text:
        previous = text
        text = _TAG_PATTERN.sub(_blank, text)
    return _UNTERMINATED_TAG.sub(_blank, text)


def _offset_preserving_lower(text: str) -> str:
    """Lower-case ``text`` without changing its length.

    ``str.lower`` maps a handful of characters (e.g. ``İ``) to multi-
    character sequences, which would shift every following offset; those
    rare characters are left unchanged instead (they are not term
    characters anyway — terms are ASCII alphanumeric runs).  Both
    tokenizers fold with it, so a document's terms do not depend on
    whether its offsets were asked for.
    """
    lowered = text.lower()
    if len(lowered) == len(text):
        return lowered
    characters = []
    for character in text:
        low = character.lower()
        characters.append(low if len(low) == 1 else character)
    return "".join(characters)


def tokenize_text(text: str, remove_stopwords: bool = True) -> List[str]:
    """Tokenise ``text`` into lower-case terms.

    Markup is stripped first so that tag and attribute names do not dominate
    the vocabulary of web documents.
    """
    stripped = _offset_preserving_lower(strip_markup(text))
    terms = _TERM_PATTERN.findall(stripped)
    if remove_stopwords:
        return [term for term in terms if term not in STOPWORDS]
    return terms


def tokenize_with_offsets(
    text: str, remove_stopwords: bool = True
) -> List[Tuple[str, int]]:
    """Tokenise ``text`` into ``(term, character_offset)`` pairs.

    Offsets index into the *original* text (markup blanking and lowering
    are both length-preserving), so the postings builder can record where
    a term first occurs and snippet extraction can decode just the bytes
    around a hit.
    """
    stripped = _offset_preserving_lower(strip_markup(text))
    pairs = []
    for match in _TERM_PATTERN.finditer(stripped):
        term = match.group()
        if remove_stopwords and term in STOPWORDS:
            continue
        pairs.append((term, match.start()))
    return pairs


def terms_of(documents: Iterable[str]) -> List[List[str]]:
    """Tokenise an iterable of documents (convenience for bulk indexing)."""
    return [tokenize_text(document) for document in documents]
