"""Shared fixtures for the test suite.

Collections used by tests are deliberately tiny (tens of documents of a few
kilobytes) so the whole suite runs in well under a minute; the benchmark
suite under ``benchmarks/`` is where realistic sizes are exercised.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

# Generated properties that leave ``max_examples`` to the profile run at
# hypothesis's default budget in tier-1; CI runs the search parity and
# sidecar fuzz properties again with ``--hypothesis-profile=large``.
settings.register_profile("large", max_examples=2000)

from repro.core import DictionaryConfig, RlzCompressor, build_dictionary
from repro.corpus import generate_gov_collection, generate_wikipedia_collection


@pytest.fixture(scope="session")
def gov_small():
    """A small GOV2-like collection shared (read-only) across tests."""
    return generate_gov_collection(num_documents=24, target_document_size=6 * 1024, seed=11)


@pytest.fixture(scope="session")
def wiki_small():
    """A small Wikipedia-like collection shared (read-only) across tests."""
    return generate_wikipedia_collection(
        num_documents=10, target_document_size=12 * 1024, seed=5
    )


@pytest.fixture(scope="session")
def gov_dictionary(gov_small):
    """A 32 KB uniform-sampled dictionary over the small .gov collection."""
    return build_dictionary(gov_small, DictionaryConfig(size=32 * 1024, sample_size=512))


@pytest.fixture(scope="session")
def gov_compressed(gov_small, gov_dictionary):
    """The small .gov collection compressed with the ZV scheme."""
    compressor = RlzCompressor(dictionary=gov_dictionary, scheme="ZV")
    return compressor.compress(gov_small)


@pytest.fixture(scope="module")
def python_decoder():
    """Turn the native decode kernel off for a module's tests, so every
    decode takes the Python path a process without a C compiler serves."""
    from repro.core import native

    saved = native._kernel
    native._kernel = None
    yield
    native._kernel = saved
