"""Tests for the SuffixArray facade (refine, longest_match, queries, LCP)."""

import numpy as np
import pytest

from repro.suffix import SuffixArray, SuffixInterval
from repro.suffix.verify import naive_suffix_array


@pytest.fixture(scope="module")
def paper_sa():
    """Suffix array over the paper's Table 1 dictionary d = cabbaabba."""
    return SuffixArray(b"cabbaabba")


def test_rejects_non_bytes():
    with pytest.raises(TypeError):
        SuffixArray("not bytes")  # type: ignore[arg-type]


def test_rejects_unknown_algorithm():
    with pytest.raises(ValueError):
        SuffixArray(b"abc", algorithm="bogus")


def test_len_and_getitem(paper_sa):
    assert len(paper_sa) == 9
    assert sorted(paper_sa[i] for i in range(9)) == list(range(9))


def test_matches_naive_order(paper_sa):
    assert paper_sa.array.tolist() == naive_suffix_array(b"cabbaabba")


def test_suffix_accessor(paper_sa):
    rank_of_full_text = paper_sa.array.tolist().index(0)
    assert paper_sa.suffix(rank_of_full_text) == b"cabbaabba"
    assert paper_sa.suffix(rank_of_full_text, limit=3) == b"cab"


# ----------------------------------------------------------------------
# Refine (the paper's worked example, Table 1)
# ----------------------------------------------------------------------
def test_refine_follows_paper_example(paper_sa):
    """Searching x = bbaancabb with successive Refine calls (Table 1).

    After matching ``b`` the interval covers the four ``b...`` suffixes
    (the paper's (5, 8) in 1-based ranks); after ``bb`` the two ``bb...``
    suffixes; after ``bba`` still both (``bba`` and ``bbaabba``); after
    ``bbaa`` only ``bbaabba``; the fifth character ``n`` does not occur in
    the dictionary so the interval becomes invalid, exactly as the final
    ``-1`` column of the paper's table shows.  Bounds here are 0-based.
    """
    x = b"bbaancabb"
    interval = paper_sa.full_interval()
    expected = [(4, 7), (6, 7), (6, 7), (7, 7)]
    for offset in range(4):
        interval = paper_sa.refine(interval, offset, x[offset])
        assert (interval.lb, interval.rb) == expected[offset]
    # The fifth character (n) does not occur: the interval becomes invalid.
    interval = paper_sa.refine(interval, 4, x[4])
    assert interval.is_empty


def test_refine_empty_interval_stays_empty(paper_sa):
    empty = SuffixInterval(3, 1)
    assert paper_sa.refine(empty, 0, ord("a")).is_empty


def test_refine_character_not_present(paper_sa):
    interval = paper_sa.refine(paper_sa.full_interval(), 0, ord("z"))
    assert interval.is_empty


def test_interval_size_properties():
    assert SuffixInterval(2, 5).size == 4
    assert SuffixInterval(2, 5).is_empty is False
    assert SuffixInterval(5, 2).size == 0
    assert SuffixInterval(5, 2).is_empty is True


# ----------------------------------------------------------------------
# longest_match (the paper's factorization example)
# ----------------------------------------------------------------------
def test_longest_match_paper_first_factor(paper_sa):
    """The first factor of bbaancabb against cabbaabba is (3, 4) => bbaa.

    Paper positions are 1-based; 0-based that is position 2.
    """
    position, length = paper_sa.longest_match(b"bbaancabb", 0)
    assert length == 4
    assert b"cabbaabba"[position : position + 4] == b"bbaa"


def test_longest_match_missing_character(paper_sa):
    position, length = paper_sa.longest_match(b"nnn", 0)
    assert length == 0


def test_longest_match_with_start_offset(paper_sa):
    position, length = paper_sa.longest_match(b"xxcabb", 2)
    assert length == 4
    assert b"cabbaabba"[position : position + length] == b"cabb"


def test_longest_match_respects_limit(paper_sa):
    position, length = paper_sa.longest_match(b"cabbaabba", 0, limit=3)
    assert length == 3
    assert b"cabbaabba"[position : position + 3] == b"cab"


def test_longest_match_whole_text(paper_sa):
    position, length = paper_sa.longest_match(b"cabbaabba", 0)
    assert (position, length) == (0, 9)


def test_longest_match_empty_query(paper_sa):
    assert paper_sa.longest_match(b"", 0) == (0, 0)


def test_longest_match_accelerated_and_faithful_agree():
    text = (b"the quick brown fox jumps over the lazy dog " * 6)[:200]
    fast = SuffixArray(text, accelerated=True)
    slow = SuffixArray(text, accelerated=False)
    queries = [
        b"the quick brown fox jumps over it",
        b"lazy dog the quick",
        b"zebra",
        b"fox jumps over the lazy dog " * 3,
    ]
    for query in queries:
        fast_match = fast.longest_match(query, 0)
        slow_match = slow.longest_match(query, 0)
        assert fast_match[1] == slow_match[1]
        assert text[fast_match[0] : fast_match[0] + fast_match[1]] == query[: fast_match[1]]


def test_longest_match_handles_nul_bytes():
    text = b"abc\x00\x00def\x00ghi"
    sa = SuffixArray(text, accelerated=True)
    query = b"c\x00\x00defXYZ"
    position, length = sa.longest_match(query, 0)
    assert text[position : position + length] == query[:length]
    assert length == 6  # matches "c\x00\x00def"


@pytest.mark.parametrize("accelerated", [True, False])
def test_longest_match_rejects_start_outside_query(accelerated):
    # A negative start must not wrap around the query: read that way,
    # longest_match(b"habc", -1) over "zzchabzz" finds (2, 4), "chab",
    # which occurs at no position of the query.
    sa = SuffixArray(b"zzchabzz", accelerated=accelerated)
    for start in (-1, -4, 5):
        with pytest.raises(ValueError):
            sa.longest_match(b"habc", start)
    assert sa.longest_match(b"habc", 4) == (0, 0)
    assert sa.longest_match(b"habc", 0)[1] == 3  # "hab"


# ----------------------------------------------------------------------
# count / find_all
# ----------------------------------------------------------------------
def test_count_occurrences(paper_sa):
    assert paper_sa.count(b"b") == 4
    assert paper_sa.count(b"bba") == 2
    assert paper_sa.count(b"cabbaabba") == 1
    assert paper_sa.count(b"zz") == 0
    assert paper_sa.count(b"") == 0


def test_find_all_positions(paper_sa):
    assert sorted(paper_sa.find_all(b"bba")) == [2, 6]
    assert sorted(paper_sa.find_all(b"a")) == [1, 4, 5, 8]
    assert list(paper_sa.find_all(b"nope")) == []


# ----------------------------------------------------------------------
# LCP array
# ----------------------------------------------------------------------
def test_lcp_array_banana():
    sa = SuffixArray(b"banana")
    # Suffixes in order: a, ana, anana, banana, na, nana.
    assert sa.lcp_array().tolist() == [0, 1, 3, 0, 0, 2]


def test_lcp_array_empty():
    assert SuffixArray(b"").lcp_array().tolist() == []


def test_lcp_matches_bruteforce():
    text = b"abracadabra"
    sa = SuffixArray(text)
    lcp = sa.lcp_array()
    order = sa.array.tolist()
    for rank in range(1, len(text)):
        a = text[order[rank - 1] :]
        b = text[order[rank] :]
        common = 0
        while common < min(len(a), len(b)) and a[common] == b[common]:
            common += 1
        assert lcp[rank] == common
