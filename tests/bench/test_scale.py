"""Tests for the benchmark scale configuration."""

import pytest

from repro.bench.scale import PAPER_DICTIONARY_LABELS, PAPER_SAMPLE_SIZES, current_scale


def test_default_scale_is_small(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
    assert current_scale().name == "small"


@pytest.mark.parametrize("name", ["tiny", "small", "medium", "large"])
def test_all_scales_resolve(monkeypatch, name):
    monkeypatch.setenv("REPRO_BENCH_SCALE", name)
    scale = current_scale()
    assert scale.name == name
    assert scale.gov_total_size > 0
    assert scale.wiki_total_size > 0
    # Every paper dictionary label must be mapped.
    assert set(PAPER_DICTIONARY_LABELS) <= set(scale.dictionary_sizes)


def test_dictionary_sizes_ordered_like_paper(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "small")
    sizes = current_scale().dictionary_sizes
    assert sizes["2.0"] > sizes["1.0"] > sizes["0.5"]


def test_dictionaries_remain_small_fraction(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "small")
    scale = current_scale()
    assert scale.dictionary_sizes["2.0"] < scale.gov_total_size / 4


def test_unknown_scale_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "galactic")
    with pytest.raises(ValueError):
        current_scale()


def test_paper_constants():
    assert PAPER_DICTIONARY_LABELS == ("2.0", "1.0", "0.5")
    assert tuple(PAPER_SAMPLE_SIZES) == (0.5, 1.0, 2.0, 5.0)


def test_cached_corpora_follow_the_requested_scale(monkeypatch):
    """A caller that passes a scale gets that scale's collection, whatever
    ``REPRO_BENCH_SCALE`` says (it once got the environment's scale)."""
    from repro.bench.corpora import gov_collection, wiki_collection
    from repro.bench.scale import _SCALES

    monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
    tiny = _SCALES["tiny"]
    assert len(gov_collection(tiny)) == 80
    assert len(wiki_collection(tiny)) == tiny.wiki_documents
