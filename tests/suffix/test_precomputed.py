"""Tests for the shared-state attach path (``SuffixArray.from_precomputed``).

The exported state is the suffix array alone.  These tests parse the
attached array with the Python port (the native factorize kernel off); the
kernel's attach path is covered in ``tests/core/test_native_factorize.py``.
"""

import pytest

from repro.suffix import SuffixArray

pytestmark = pytest.mark.usefixtures("python_match_engine")


@pytest.fixture(scope="module")
def built():
    text = b"the quick brown fox jumps over the lazy dog \x00 tail" * 6
    original = SuffixArray(text)
    original.prepare()
    return text, original


def test_shared_state_roundtrip_produces_identical_parses(built):
    text, original = built
    state = original.shared_state()
    assert set(state) == {"sa"}
    clone = SuffixArray.from_precomputed(text, state["sa"])
    queries = [
        b"the quick brown fox",
        b"lazy dog \x00 tail",
        b"completely absent bytes XYZ",
        b"",
        text[: 40],
    ]
    for query in queries:
        assert clone.factorize_stream(query) == original.factorize_stream(query)
        assert clone.longest_match(query) == original.longest_match(query)


def test_from_precomputed_does_not_run_construction(built, monkeypatch):
    text, original = built
    state = original.shared_state()

    def _boom(*args, **kwargs):
        raise AssertionError("construction must not run on the attach path")

    import repro.suffix.suffix_array as suffix_array_module

    monkeypatch.setattr(suffix_array_module, "suffix_array_doubling", _boom)
    monkeypatch.setattr(suffix_array_module, "sais", _boom)
    clone = SuffixArray.from_precomputed(text, state["sa"], algorithm="shared:test")
    assert clone.algorithm == "shared:test"
    assert clone.factorize_stream(b"the quick") == original.factorize_stream(b"the quick")


def test_from_precomputed_accepts_read_only_views(built):
    text, original = built
    state = original.shared_state()
    sa = state["sa"].copy()
    sa.flags.writeable = False
    clone = SuffixArray.from_precomputed(text, sa)
    assert clone.array is sa  # borrowed, not copied
    assert clone.factorize_stream(b"fox jumps") == original.factorize_stream(b"fox jumps")


def test_from_precomputed_validates_lengths(built):
    text, original = built
    state = original.shared_state()
    with pytest.raises(ValueError):
        SuffixArray.from_precomputed(text, state["sa"][:-1])
    with pytest.raises(TypeError):
        SuffixArray.from_precomputed("not bytes", state["sa"])


def test_from_precomputed_rejects_out_of_range_values(built):
    """The native kernel indexes the text with suffix-array values, so a
    borrowed array must hold ranks of this text."""
    text, original = built
    for bad in (-1, len(text)):
        sa = original.array.copy()
        sa[5] = bad
        with pytest.raises(ValueError, match="outside"):
            SuffixArray.from_precomputed(text, sa)
