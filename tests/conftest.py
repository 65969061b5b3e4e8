"""Shared fixtures for the test suite.

Collections used by tests are deliberately tiny (tens of documents of a few
kilobytes) so the whole suite runs in well under a minute; the benchmark
suite under ``benchmarks/`` is where realistic sizes are exercised.
"""

from __future__ import annotations

import asyncio
import threading

import pytest
from hypothesis import settings

# Generated properties that leave ``max_examples`` to the profile run at
# hypothesis's default budget in tier-1; CI runs the search parity, sidecar
# fuzz, decode-kernel and suffix-array properties again with
# ``--hypothesis-profile=large``.  Properties that pin a budget take it
# through ``hypothesis_budget.budget`` so the profile still raises it.
settings.register_profile("large", max_examples=2000)

from repro.core import DictionaryConfig, RlzCompressor, build_dictionary
from repro.corpus import generate_gov_collection, generate_wikipedia_collection
from repro.serve import AsyncClusterClient


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


@pytest.fixture()
def python_match_engine():
    """Turn the native factorize kernel off for a test, so every parse takes
    the Python match engine a process without a C compiler runs."""
    from repro.core import native

    with native.python_match_engine():
        yield


class AsyncViewBridge:
    """Drive an :class:`AsyncClusterClient` through the synchronous
    ``ArchiveView`` surface.

    A dedicated event-loop thread owns the client; every view method
    submits one coroutine with ``run_coroutine_threadsafe`` and blocks on
    the result, so exceptions (``StorageError``, ``StoreClosedError``)
    surface with their real types, exactly as the sync views raise them.
    """

    def __init__(self, endpoints, **options):
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="async-view-bridge", daemon=True
        )
        self._thread.start()
        options = {"retries": 0, "retry_delay": 0.01, **options}
        self._client = AsyncClusterClient(endpoints, **options)
        self._stopped = False

    def _run(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result(30)

    def get(self, doc_id):
        return self._run(self._client.get(doc_id))

    def get_many(self, doc_ids):
        return self._run(self._client.get_many(doc_ids))

    def iter_documents(self):
        iterator = self._client.iter_documents()  # async generator: no await
        while True:
            try:
                yield self._run(iterator.__anext__())
            except StopAsyncIteration:
                return

    def doc_ids(self):
        return self._run(self._client.doc_ids())

    def __len__(self):
        return len(self.doc_ids())

    def stats(self):
        return self._run(self._client.stats())

    @property
    def closed(self):
        return self._client.closed

    def close(self):
        if not self._stopped:
            self._run(self._client.close())
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)
            self._loop.close()
            self._stopped = True


@pytest.fixture(scope="session")
def async_view_bridge():
    """The :class:`AsyncViewBridge` class: ``async_view_bridge(endpoints,
    **options)`` is an async cluster client behind the sync view surface."""
    return AsyncViewBridge
