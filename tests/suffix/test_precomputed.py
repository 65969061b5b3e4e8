"""Tests for the shared-state attach path (``SuffixArray.from_precomputed``).

These cover the Python match engine's exported arrays (the per-position and
level-0 keys), so they run with the native factorize kernel off; the
kernel's attach path, which exports the suffix array alone, is covered in
``tests/core/test_native_factorize.py``.
"""

import numpy as np
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
    clone = SuffixArray.from_precomputed(
        text,
        state["sa"],
        position_keys=state.get("position_keys"),
        level0_keys=state.get("level0_keys"),
    )
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


def test_from_precomputed_reuses_injected_arrays(built):
    text, original = built
    state = original.shared_state()
    clone = SuffixArray.from_precomputed(
        text,
        state["sa"],
        position_keys=state["position_keys"],
        level0_keys=state["level0_keys"],
    )
    clone._ensure_keys()
    assert clone._position_keys is state["position_keys"]
    assert clone._level0_keys is state["level0_keys"]


def test_from_precomputed_accepts_read_only_views(built):
    text, original = built
    state = original.shared_state()
    sa = state["sa"].copy()
    sa.flags.writeable = False
    position_keys = state["position_keys"].copy()
    position_keys.flags.writeable = False
    clone = SuffixArray.from_precomputed(text, sa, position_keys=position_keys)
    assert clone.factorize_stream(b"fox jumps") == original.factorize_stream(b"fox jumps")


def test_from_precomputed_validates_lengths(built):
    text, original = built
    state = original.shared_state()
    with pytest.raises(ValueError):
        SuffixArray.from_precomputed(text, state["sa"][:-1])
    with pytest.raises(ValueError):
        SuffixArray.from_precomputed(
            text, state["sa"], position_keys=state["position_keys"][:-1]
        )
    with pytest.raises(ValueError):
        SuffixArray.from_precomputed(
            text, state["sa"], level0_keys=state["level0_keys"][:-1]
        )
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
