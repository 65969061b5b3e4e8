"""Cached benchmark corpora.

Every experiment in the suite works on one of three collections (GOV2-like
in crawl order, the same collection URL-sorted, or Wikipedia-like), so they
are generated once per process and scale and memoised here.  A caller that
passes a scale gets that scale's collection; the ``REPRO_BENCH_SCALE``
environment variable only picks the default.
"""

from __future__ import annotations

from functools import lru_cache

from ..corpus import (
    DocumentCollection,
    generate_gov_collection,
    generate_wikipedia_collection,
    url_sorted,
)
from .scale import _SCALES, BenchScale, current_scale

__all__ = ["gov_collection", "gov_collection_url_sorted", "wiki_collection"]


@lru_cache(maxsize=4)
def _gov(scale_name: str) -> DocumentCollection:
    scale = _SCALES[scale_name]
    return generate_gov_collection(
        num_documents=scale.gov_documents,
        target_document_size=scale.gov_document_size,
        seed=42,
    )


@lru_cache(maxsize=4)
def _wiki(scale_name: str) -> DocumentCollection:
    scale = _SCALES[scale_name]
    return generate_wikipedia_collection(
        num_documents=scale.wiki_documents,
        target_document_size=scale.wiki_document_size,
        seed=7,
    )


def gov_collection(scale: BenchScale | None = None) -> DocumentCollection:
    """The GOV2-like collection at the current scale (crawl order)."""
    scale = scale or current_scale()
    return _gov(scale.name)


def gov_collection_url_sorted(scale: BenchScale | None = None) -> DocumentCollection:
    """The GOV2-like collection at the current scale, URL-sorted."""
    return url_sorted(gov_collection(scale))


def wiki_collection(scale: BenchScale | None = None) -> DocumentCollection:
    """The Wikipedia-like collection at the current scale."""
    scale = scale or current_scale()
    return _wiki(scale.name)
