"""Tests for the parallel encode pipeline."""

import multiprocessing
import os

import pytest

from repro.core import (
    DictionaryConfig,
    PairEncoder,
    ParallelCompressor,
    RlzCompressor,
    RlzDictionary,
    RlzFactorizer,
)
from repro.core import parallel as parallel_module
from repro.core.parallel import _describe_chunk, resolve_workers
from repro.corpus import generate_gov_collection
from repro.errors import FactorizationError

spawn_available = pytest.mark.skipif(
    "spawn" not in multiprocessing.get_all_start_methods(),
    reason="spawn start method not available",
)


@pytest.fixture(scope="module")
def dictionary():
    return RlzDictionary(b"the quick brown fox jumps over the lazy dog " * 40)


@pytest.fixture(scope="module")
def documents():
    return [
        b"the quick brown fox",
        b"jumps over the lazy dog and the quick cat",
        b"completely unrelated \x00 bytes XYZ",
        b"",
        b"the the the the quick quick",
    ] * 3


def serial_blobs(dictionary, documents, scheme="ZZ"):
    factorizer = RlzFactorizer(dictionary)
    encoder = PairEncoder(scheme)
    return [encoder.encode(factorizer.factorize(document)) for document in documents]


def test_resolve_workers():
    assert resolve_workers(None) == 1
    assert resolve_workers(1) == 1
    assert resolve_workers(3) == 3
    assert resolve_workers(0) >= 1
    with pytest.raises(FactorizationError):
        resolve_workers(-2)


def test_resolve_workers_negative_error_states_the_contract():
    """The error must describe the documented contract (None/1 serial,
    0 all cores, positive pool size), not a bare numeric bound."""
    with pytest.raises(FactorizationError) as excinfo:
        resolve_workers(-2)
    message = str(excinfo.value)
    assert "None or 1 (serial)" in message
    assert "0 (use every core)" in message
    assert "got -2" in message


def test_resolve_workers_zero_without_cpu_count(monkeypatch):
    """workers=0 falls back to serial when the core count is unknown."""
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert resolve_workers(0) == 1


def test_serial_pipeline_matches_object_path(dictionary, documents):
    pipeline = ParallelCompressor(dictionary, scheme="ZZ", workers=1)
    assert pipeline.encode_documents(documents) == serial_blobs(dictionary, documents)


def test_pool_pipeline_matches_serial(dictionary, documents):
    pipeline = ParallelCompressor(dictionary, scheme="ZV", workers=2, chunk_size=2)
    blobs = pipeline.encode_documents(documents)
    assert blobs == serial_blobs(dictionary, documents, scheme="ZV")


def test_factorize_documents_streams(dictionary, documents):
    pipeline = ParallelCompressor(dictionary, workers=2, chunk_size=3)
    streams = pipeline.factorize_documents(documents)
    factorizer = RlzFactorizer(dictionary)
    for document, (positions, lengths) in zip(documents, streams):
        expected = factorizer.factorize(document)
        assert positions == expected.positions()
        assert lengths == expected.lengths()


def test_factorize_many_workers(dictionary, documents):
    factorizer = RlzFactorizer(dictionary)
    assert factorizer.factorize_many(documents, workers=2) == factorizer.factorize_many(
        documents
    )


def test_compressor_workers_produce_identical_collection():
    collection = generate_gov_collection(num_documents=8, seed=5)
    config = DictionaryConfig(size=16 * 1024, sample_size=512)
    serial = RlzCompressor(dictionary_config=config, scheme="ZZ").compress(collection)
    parallel = RlzCompressor(
        dictionary_config=config, scheme="ZZ", workers=2
    ).compress(collection)
    assert [d.data for d in serial.documents] == [d.data for d in parallel.documents]
    for document in collection:
        assert parallel.decode_document(document.doc_id) == document.content


def test_parent_state_not_leaked_when_pool_start_fails(dictionary, documents, monkeypatch):
    """A failed pool start must not leave the dictionary referenced by the
    module global (the fork handoff) — regression test for the leak where an
    exception between the handoff and pool construction kept the parent
    dictionary alive for the life of the process."""

    class _BrokenContext:
        def Pool(self, *args, **kwargs):
            raise RuntimeError("pool start failed")

    monkeypatch.setattr(
        parallel_module.multiprocessing, "get_context", lambda method: _BrokenContext()
    )
    pipeline = ParallelCompressor(dictionary, workers=2, start_method="fork")
    with pytest.raises(RuntimeError, match="pool start failed"):
        pipeline.encode_documents(documents)
    assert parallel_module._PARENT_STATE is None


@spawn_available
def test_spawn_shared_memory_matches_serial_and_attaches(dictionary, documents):
    """spawn workers must attach the parent's suffix array through shared
    memory (not rebuild it) and produce byte-identical blobs."""
    pipeline = ParallelCompressor(
        dictionary, scheme="ZZ", workers=2, chunk_size=3, start_method="spawn"
    )
    blobs = pipeline.encode_documents(documents)
    assert blobs == serial_blobs(dictionary, documents)
    assert len(pipeline.last_segment_names) == 2  # the text and the suffix array
    descriptions = pipeline._run(_describe_chunk, documents)
    for algorithm, segments, _pid, _engine, _writeable in descriptions:
        assert algorithm.startswith("shared:")
        assert segments >= 2


@spawn_available
def test_spawn_shared_memory_segments_released_on_shutdown(dictionary, documents):
    """Without the persistent pool, a run unlinks its segments on the way out."""
    from multiprocessing import shared_memory

    pipeline = ParallelCompressor(
        dictionary, workers=2, start_method="spawn", persistent_segments=False
    )
    pipeline.encode_documents(documents)
    names = pipeline.last_segment_names
    assert names  # the shared path was taken
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


@spawn_available
def test_persistent_segment_pool_reuses_publication(documents):
    """Back-to-back runs against one dictionary attach to the same pooled
    segments (one publish total), and clear() unlinks them."""
    from multiprocessing import shared_memory

    from repro.core.parallel import _SEGMENT_POOL, segment_pool_stats

    dictionary = RlzDictionary(b"persistent segment pool corpus " * 64)
    before = segment_pool_stats()
    pipeline = ParallelCompressor(dictionary, workers=2, start_method="spawn")
    assert pipeline.persistent_segments
    pipeline.encode_documents(documents)
    first_names = pipeline.last_segment_names
    assert first_names
    # The segments survive the run ...
    segment = shared_memory.SharedMemory(name=first_names[0])
    segment.close()
    # ... and the second run reuses them instead of republishing.
    pipeline.encode_documents(documents)
    assert pipeline.last_segment_names == first_names
    stats = segment_pool_stats()
    assert stats["misses"] == before["misses"] + 1
    assert stats["hits"] >= before["hits"] + 1
    _SEGMENT_POOL.clear()
    for name in first_names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def test_segment_pool_evicts_on_dictionary_collection():
    """A garbage-collected dictionary must drop its pooled segments."""
    import gc

    from multiprocessing import shared_memory

    from repro.core.parallel import _SEGMENT_POOL

    dictionary = RlzDictionary(b"short lived dictionary " * 32)
    shared = _SEGMENT_POOL.acquire(dictionary)
    names = shared.segment_names
    assert _SEGMENT_POOL.acquire(dictionary) is shared  # pooled, not republished
    del dictionary, shared
    gc.collect()
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


@spawn_available
def test_spawn_shared_memory_segments_released_when_pool_fails(
    dictionary, documents, monkeypatch
):
    """Segment cleanup must also run when pool construction raises."""
    from multiprocessing import shared_memory

    real_get_context = multiprocessing.get_context

    class _BrokenContext:
        def Pool(self, *args, **kwargs):
            raise RuntimeError("pool start failed")

    monkeypatch.setattr(
        parallel_module.multiprocessing, "get_context", lambda method: _BrokenContext()
    )
    pipeline = ParallelCompressor(
        dictionary, workers=2, start_method="spawn", persistent_segments=False
    )
    with pytest.raises(RuntimeError, match="pool start failed"):
        pipeline.encode_documents(documents)
    names = pipeline.last_segment_names
    assert names
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
    assert parallel_module._PARENT_STATE is None
    assert real_get_context("spawn") is not None  # sanity: patch was local


def _fail_segment_creation(monkeypatch, failing):
    """Make the ``failing``-th shared-memory creation raise; return the
    names of the segments created before it and the real constructor."""
    from multiprocessing import shared_memory

    real_shared_memory = shared_memory.SharedMemory
    created = []
    state = {"creations": 0}

    def flaky(*args, **kwargs):
        if kwargs.get("create"):
            state["creations"] += 1
            if state["creations"] == failing:
                raise OSError("shm exhausted")
        segment = real_shared_memory(*args, **kwargs)
        if kwargs.get("create"):
            created.append(segment.name)
        return segment

    monkeypatch.setattr(shared_memory, "SharedMemory", flaky)
    return created, real_shared_memory


def _assert_released(created, real_shared_memory):
    assert created  # some segments were created before the failure
    for name in created:
        with pytest.raises(FileNotFoundError):
            real_shared_memory(name=name)


def test_shared_publish_midway_failure_releases_created_segments(dictionary, monkeypatch):
    """If segment creation fails partway through publish (e.g. a full
    /dev/shm), the real error must propagate and every already-created
    segment must be closed and unlinked — no kernel objects leak.  The
    Python engine publishes two segments (the text and the suffix array);
    the second creation fails and the text segment is released."""
    from repro.core import native

    created, real_shared_memory = _fail_segment_creation(monkeypatch, 2)
    with native.python_match_engine():
        with pytest.raises(OSError, match="shm exhausted"):
            parallel_module._SharedDictionary.publish(dictionary)
    assert len(created) == 1
    _assert_released(created, real_shared_memory)


def test_shared_publish_failure_with_the_kernel_releases_the_text_segment(
    dictionary, monkeypatch
):
    """With the native kernel the same two segments are published as with
    the Python engine; the suffix array's creation fails and the text
    segment is released."""
    from repro.core import native

    if native.factorize_kernel() is None:
        pytest.skip("the native factorize kernel is unavailable (no C compiler?)")
    created, real_shared_memory = _fail_segment_creation(monkeypatch, 2)
    with pytest.raises(OSError, match="shm exhausted"):
        parallel_module._SharedDictionary.publish(dictionary)
    assert len(created) == 1
    _assert_released(created, real_shared_memory)


@spawn_available
def test_spawn_without_shared_memory_rebuilds_per_worker(dictionary, documents):
    pipeline = ParallelCompressor(
        dictionary, workers=2, start_method="spawn", share_memory=False
    )
    blobs = pipeline.encode_documents(documents)
    assert blobs == serial_blobs(dictionary, documents)
    assert pipeline.last_segment_names == ()
    descriptions = pipeline._run(_describe_chunk, documents)
    for algorithm, segments, _pid, _engine, _writeable in descriptions:
        assert not algorithm.startswith("shared:")
        assert segments == 0


@spawn_available
def test_factorize_many_spawn_shared_memory(dictionary, documents):
    factorizer = RlzFactorizer(dictionary)
    serial = factorizer.factorize_many(documents)
    shared = factorizer.factorize_many(
        documents, workers=2, start_method="spawn", share_memory=True
    )
    assert shared == serial


def test_empty_document_list(dictionary):
    pipeline = ParallelCompressor(dictionary, workers=2)
    assert pipeline.encode_documents([]) == []


def test_invalid_chunk_size(dictionary):
    with pytest.raises(FactorizationError):
        ParallelCompressor(dictionary, chunk_size=0)


@pytest.mark.parametrize(
    "start_method",
    [
        pytest.param(
            method,
            marks=pytest.mark.skipif(
                method not in multiprocessing.get_all_start_methods(),
                reason=f"{method} start method not available",
            ),
        )
        for method in ("fork", "spawn")
    ],
)
def test_workers_run_the_kernel_and_match_the_serial_python_engine(
    start_method, dictionary, documents, monkeypatch
):
    """Fork workers inherit the loaded factorize kernel; spawn workers load
    it and parse over the parent's shared-memory suffix array in place.
    Either way the blobs equal the serial Python engine's."""
    from repro.core import native

    if native.factorize_kernel() is None:
        pytest.skip("the native factorize kernel is unavailable (no C compiler?)")
    with native.python_match_engine():
        expected = serial_blobs(dictionary, documents)
    pipeline = ParallelCompressor(
        dictionary, scheme="ZZ", workers=2, chunk_size=3, start_method=start_method
    )
    assert pipeline.encode_documents(documents) == expected
    descriptions = pipeline._run(_describe_chunk, documents)
    # spawn: the read-only segment view, never a private copy.
    engines = {(engine, writeable) for *_, engine, writeable in descriptions}
    assert engines == {("native", start_method == "fork")}
