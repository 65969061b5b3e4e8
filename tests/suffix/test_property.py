"""Property-based tests for the suffix-array substrate."""

from hypothesis import given, settings, strategies as st

from repro.suffix import SuffixArray, suffix_array_doubling
from repro.suffix.sais import sais
from repro.suffix.verify import is_valid_suffix_array


texts = st.binary(min_size=0, max_size=300)
small_texts = st.binary(min_size=1, max_size=120)


@given(texts)
@settings(max_examples=60, deadline=None)
def test_doubling_always_produces_valid_suffix_array(text):
    assert is_valid_suffix_array(text, suffix_array_doubling(text))


@given(small_texts)
@settings(max_examples=40, deadline=None)
def test_sais_agrees_with_doubling(text):
    assert sais(text) == suffix_array_doubling(text).tolist()


@given(small_texts, st.binary(min_size=0, max_size=120))
@settings(deadline=None)
def test_longest_match_is_valid_and_maximal(dictionary, query):
    """longest_match must return a true occurrence, and a maximal one."""
    sa = SuffixArray(dictionary, accelerated=True)
    position, length = sa.longest_match(query, 0)
    # The returned match must be an actual substring match.
    assert dictionary[position : position + length] == query[:length]
    # It must be maximal: no occurrence of query[:length + 1] exists.
    if length < len(query):
        assert dictionary.find(query[: length + 1]) == -1


@given(small_texts, st.binary(min_size=0, max_size=120))
@settings(deadline=None)
def test_accelerated_and_faithful_find_same_length(dictionary, query):
    fast = SuffixArray(dictionary, accelerated=True)
    slow = SuffixArray(dictionary, accelerated=False)
    assert fast.longest_match(query, 0)[1] == slow.longest_match(query, 0)[1]


@given(small_texts, st.binary(min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_count_matches_bruteforce(text, pattern):
    sa = SuffixArray(text)
    expected = sum(
        1 for i in range(len(text) - len(pattern) + 1) if text[i : i + len(pattern)] == pattern
    )
    assert sa.count(pattern) == expected
    assert sorted(sa.find_all(pattern)) == [
        i for i in range(len(text) - len(pattern) + 1) if text[i : i + len(pattern)] == pattern
    ]
