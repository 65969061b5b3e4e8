"""Parallel encode pipeline: chunk documents across a process pool.

Factorization is embarrassingly parallel — every document is parsed against
the same read-only dictionary — so the encode path scales across cores by
chunking the document list over a ``multiprocessing`` pool.  The parent
loads the native factorize kernel (:mod:`repro.core.native`) before the pool
starts, so fork workers inherit it mapped and spawn workers find it
compiled.  The dictionary and its int64 suffix array — the only state the
parse reads, in the kernel and in its Python port alike — are shared with
the workers read-only:

* with the ``fork`` start method (the default where available) the parent
  builds everything once and the children inherit the pages copy-on-write —
  nothing is pickled or rebuilt;
* with ``spawn`` (and ``forkserver``) the parent publishes the raw
  dictionary bytes plus the prebuilt suffix array through two
  ``multiprocessing.shared_memory`` segments; each worker *attaches* to the
  segments and wraps the arrays with
  :meth:`repro.suffix.SuffixArray.from_precomputed` instead of re-running
  the O(n log n) suffix-array construction per worker.  By default the
  published segments live in a process-wide *segment pool*
  (``persistent_segments=True``) so repeated batch encodes against the
  same dictionary reuse one publication; they are unlinked when the
  dictionary is collected or the process exits.  With
  ``persistent_segments=False`` each run publishes its own segments and
  unlinks them when its pool shuts down — including when pool
  construction itself fails;
* if shared memory is unavailable (or disabled with ``share_memory=False``)
  the ``spawn`` path falls back to shipping the dictionary bytes once per
  worker and rebuilding the suffix array there (the pre-PR-2 behaviour).

Workers return encoded blobs (or raw factor streams), so the parent never
holds more than the compressed form of each document.  The output order and
bytes are identical to the serial path — the pool only changes wall-clock
time.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import FactorizationError
from ..suffix import SuffixArray
from . import native
from .dictionary import RlzDictionary
from .encoder import PairEncoder
from .factorizer import RlzFactorizer
from .shm import attach_segment, release_segment

__all__ = ["ParallelCompressor", "resolve_workers", "segment_pool_stats"]

#: Worker-process state: (factorizer, encoder), set by the pool initializer.
_WORKER_STATE: Optional[Tuple[RlzFactorizer, PairEncoder]] = None

#: Shared-memory segments a worker has attached (kept referenced so the
#: mapped buffers stay alive for the lifetime of the worker process).
_WORKER_SEGMENTS: List = []

#: Parent-process handoff for fork workers: (dictionary, scheme name).  Set
#: immediately before the pool forks and cleared right after, so children
#: inherit the already-built dictionary object copy-on-write.
_PARENT_STATE: Optional[Tuple[RlzDictionary, str]] = None


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers`` argument: ``None``/1 serial, 0 all cores.

    Negative values are rejected — the contract has no meaning for them.
    When ``workers`` is 0 and the core count cannot be determined
    (``os.cpu_count()`` returns ``None``), the pipeline falls back to one
    worker, i.e. serial execution.
    """
    if workers is None:
        return 1
    if workers < 0:
        raise FactorizationError(
            "workers must be None or 1 (serial), 0 (use every core) or a "
            f"positive pool size; got {workers}"
        )
    if workers == 0:
        return os.cpu_count() or 1
    return workers


# ----------------------------------------------------------------------
# Shared-memory publication (parent side) and attachment (worker side)
# ----------------------------------------------------------------------
class _SharedDictionary:
    """Parent-side handle for the shared-memory copy of a dictionary.

    ``publish`` copies the dictionary bytes and the prebuilt suffix array
    into ``multiprocessing.shared_memory`` segments and produces a picklable
    *descriptor* (segment names + dtypes + lengths + suffix-array
    configuration) small enough to ship to every spawn worker.  The
    parent must call :meth:`cleanup` once the pool is done — segments are
    kernel objects, not garbage-collected memory.
    """

    def __init__(self, segments: List, descriptor: Dict) -> None:
        self._segments = segments
        self.descriptor = descriptor

    @property
    def segment_names(self) -> Tuple[str, ...]:
        """Names of every published segment (test/introspection hook)."""
        return tuple(shm.name for shm in self._segments)

    @staticmethod
    def _copy_into_segment(segment, array: np.ndarray) -> None:
        """Fill ``segment`` with ``array``'s bytes.

        The numpy view over the segment buffer must not outlive this scope:
        a still-exported buffer makes ``segment.close()`` raise
        ``BufferError`` on the error-cleanup path.
        """
        view = np.frombuffer(segment.buf, dtype=array.dtype, count=len(array))
        view[:] = array

    @classmethod
    def publish(cls, dictionary: RlzDictionary) -> "_SharedDictionary":
        """Copy ``dictionary`` and its suffix array into shared memory."""
        from multiprocessing import shared_memory

        suffix_array = dictionary.suffix_array
        state = suffix_array.shared_state()
        segments: List = []
        arrays: Dict[str, Tuple[str, str, int]] = {}
        try:
            data = dictionary.data
            text_segment = shared_memory.SharedMemory(create=True, size=max(1, len(data)))
            segments.append(text_segment)
            text_segment.buf[: len(data)] = data
            for name, array in state.items():
                array = np.ascontiguousarray(array)
                segment = shared_memory.SharedMemory(
                    create=True, size=max(1, array.nbytes)
                )
                segments.append(segment)
                cls._copy_into_segment(segment, array)
                arrays[name] = (segment.name, array.dtype.str, len(array))
        except Exception:
            # Release whatever was created so a mid-loop failure (e.g. a
            # full /dev/shm) leaks no kernel objects and surfaces the real
            # error, not a cleanup error.
            cls(segments, {}).cleanup()
            raise
        descriptor = {
            "text": (text_segment.name, len(data)),
            "arrays": arrays,
            "sa_algorithm": dictionary.sa_algorithm,
            "accelerated": dictionary.accelerated,
        }
        return cls(segments, descriptor)

    def cleanup(self) -> None:
        """Close and unlink every segment (idempotent).

        Close and unlink are attempted independently per segment (see
        :func:`repro.core.shm.release_segment`): a close refused because a
        buffer is still exported must not stop the segment — or any later
        one — from being unlinked.
        """
        segments, self._segments = self._segments, []
        for segment in segments:
            release_segment(segment, unlink=True)


class _SegmentPool:
    """Process-wide cache of published shared-memory dictionaries.

    Publishing a dictionary copies its bytes plus the prebuilt suffix array
    (8 bytes per dictionary byte) into ``/dev/shm`` — for a paper-scale
    dictionary that is hundreds of MB per :meth:`ParallelCompressor._run_pool` call.
    Repeated batch encodes against the *same* dictionary object (the common
    shape: one compressor, many document batches) can reuse the published
    segments instead, so the pool keeps them alive across runs:

    - entries are keyed by dictionary identity and evicted by a
      ``weakref.finalize`` on the dictionary, so a collected dictionary
      cannot leave segments behind (nor can a recycled ``id()`` alias a
      stale entry);
    - a process-exit hook clears whatever survives, matching the
      one-publication-per-run cleanup guarantee of the non-pooled path;
    - ``clear()`` releases everything eagerly (tests, long-lived servers
      rotating dictionaries).

    All bookkeeping is guarded by one lock; the expensive publish itself
    runs outside it, with a second lookup resolving publish races (the
    loser unlinks its duplicate).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[int, _SharedDictionary] = {}
        self._finalizers: Dict[int, object] = {}
        self._hits = 0
        self._misses = 0

    def acquire(self, dictionary: RlzDictionary) -> _SharedDictionary:
        """The pooled shared handle for ``dictionary``, publishing on miss."""
        key = id(dictionary)
        with self._lock:
            shared = self._entries.get(key)
            if shared is not None:
                self._hits += 1
                return shared
        published = _SharedDictionary.publish(dictionary)
        duplicate = None
        with self._lock:
            shared = self._entries.get(key)
            if shared is not None:
                # Lost a publish race: keep the first handle, drop ours.
                self._hits += 1
                duplicate = published
            else:
                self._misses += 1
                self._entries[key] = published
                self._finalizers[key] = weakref.finalize(
                    dictionary, self._evict, key
                )
                shared = published
        if duplicate is not None:
            duplicate.cleanup()
        return shared

    def _evict(self, key: int) -> None:
        with self._lock:
            shared = self._entries.pop(key, None)
            finalizer = self._finalizers.pop(key, None)
        if finalizer is not None:
            finalizer.detach()
        if shared is not None:
            shared.cleanup()

    def clear(self) -> None:
        """Unlink every pooled segment now (idempotent)."""
        with self._lock:
            entries = list(self._entries.values())
            finalizers = list(self._finalizers.values())
            self._entries.clear()
            self._finalizers.clear()
        for finalizer in finalizers:
            finalizer.detach()
        for shared in entries:
            shared.cleanup()

    def stats(self) -> Dict[str, int]:
        """Pool effectiveness counters (entries, segments, hits, misses)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "segments": sum(
                    len(shared.segment_names) for shared in self._entries.values()
                ),
                "hits": self._hits,
                "misses": self._misses,
            }


#: The process-wide pool behind ``persistent_segments=True`` pipelines.
_SEGMENT_POOL = _SegmentPool()
atexit.register(_SEGMENT_POOL.clear)


def segment_pool_stats() -> Dict[str, int]:
    """Counters of the persistent shared-memory segment pool."""
    return _SEGMENT_POOL.stats()


def _attach_segment(name: str):
    """Attach a segment (tracker-free, see :mod:`repro.core.shm`) and keep
    it referenced for the lifetime of the worker process."""
    segment = attach_segment(name)
    _WORKER_SEGMENTS.append(segment)
    return segment


def _attach_shared_dictionary(descriptor: Dict) -> RlzDictionary:
    """Worker side: wrap the published segments in an :class:`RlzDictionary`.

    The suffix array is a zero-copy view over its shared buffer (marked
    read-only); only the dictionary bytes are copied, since
    the factorizer needs a real ``bytes`` object for slicing.  The suffix
    array is *not* reconstructed — ``SuffixArray.from_precomputed`` wraps
    the shared array directly, which is the entire point of this path.
    """
    text_name, text_length = descriptor["text"]
    text_segment = _attach_segment(text_name)
    data = bytes(text_segment.buf[:text_length])
    arrays: Dict[str, np.ndarray] = {}
    for name, (segment_name, dtype, count) in descriptor["arrays"].items():
        segment = _attach_segment(segment_name)
        view = np.frombuffer(segment.buf, dtype=np.dtype(dtype), count=count)
        view.flags.writeable = False
        arrays[name] = view
    suffix_array = SuffixArray.from_precomputed(
        data,
        arrays["sa"],
        algorithm=f"shared:{descriptor['sa_algorithm']}",
        accelerated=descriptor["accelerated"],
    )
    return RlzDictionary.from_prebuilt(
        data,
        suffix_array,
        sa_algorithm=descriptor["sa_algorithm"],
        accelerated=descriptor["accelerated"],
    )


# ----------------------------------------------------------------------
# Worker entry points
# ----------------------------------------------------------------------
def _initialize_worker(payload) -> None:
    global _WORKER_STATE
    if payload is None:
        dictionary, scheme = _PARENT_STATE
    else:
        kind, body, scheme = payload
        if kind == "shm":
            dictionary = _attach_shared_dictionary(body)
        else:  # "pickle": raw bytes shipped, suffix array rebuilt here
            data, sa_algorithm, accelerated = body
            dictionary = RlzDictionary(
                data, sa_algorithm=sa_algorithm, accelerated=accelerated
            )
    _WORKER_STATE = (RlzFactorizer(dictionary), PairEncoder(scheme))


def _encode_chunk(
    documents: List[bytes],
    state: Optional[Tuple[RlzFactorizer, PairEncoder]] = None,
) -> List[bytes]:
    factorizer, encoder = state if state is not None else _WORKER_STATE
    return [
        encoder.encode_streams(*factorizer.factorize_streams(document))
        for document in documents
    ]


def _factorize_chunk(
    documents: List[bytes],
    state: Optional[Tuple[RlzFactorizer, PairEncoder]] = None,
) -> List[Tuple[List[int], List[int]]]:
    factorizer, _ = state if state is not None else _WORKER_STATE
    return [factorizer.factorize_streams(document) for document in documents]


def _describe_chunk(
    documents: List[bytes],
    state: Optional[Tuple[RlzFactorizer, PairEncoder]] = None,
) -> List[Tuple[str, int, int, str, bool]]:
    """Report how each worker's dictionary was built (test/diagnostic hook).

    Returns one ``(suffix_array_algorithm, attached_segments, pid,
    match_engine, suffix_array_writeable)`` tuple per document: an
    ``"shared:..."`` algorithm name proves the worker wrapped the parent's
    suffix array instead of reconstructing it, and a read-only array that
    the segment was wrapped without a copy.  ``match_engine`` is
    :func:`repro.core.native.factorizer_name` in the worker.
    """
    factorizer, _ = state if state is not None else _WORKER_STATE
    suffix_array = factorizer.dictionary.suffix_array
    description = (
        suffix_array.algorithm,
        len(_WORKER_SEGMENTS),
        os.getpid(),
        native.factorizer_name(),
        bool(suffix_array.array.flags.writeable),
    )
    return [description] * len(documents)


class ParallelCompressor:
    """Encode documents against one dictionary with a worker pool.

    Parameters
    ----------
    dictionary:
        The shared RLZ dictionary every worker parses against.
    scheme:
        Pair-coding scheme for :meth:`encode_documents`.
    workers:
        ``None`` or 1 runs serially in-process; 0 uses every core; any other
        positive value sets the pool size.
    chunk_size:
        Documents per pool task.  Defaults to an even split producing about
        four tasks per worker, which balances scheduling overhead against
        stragglers.
    start_method:
        ``multiprocessing`` start method.  Defaults to ``fork`` when the
        platform offers it (zero-copy dictionary sharing), else ``spawn``.
    share_memory:
        Dictionary sharing for non-``fork`` start methods.  ``None`` (auto)
        publishes the dictionary and its suffix array through
        ``multiprocessing.shared_memory`` when possible, falling back to
        pickled bytes on failure; ``True`` forces shared memory
        (errors surface); ``False`` disables it (each worker rebuilds the
        suffix array from pickled bytes).  Ignored under ``fork``, where
        copy-on-write already shares everything.
    persistent_segments:
        Keep the published segments in the process-wide pool across runs
        (default ``True``): repeated batch encodes against the same
        dictionary object attach to the same segments instead of paying a
        full publish per call.  Pooled segments are released when the
        dictionary is garbage-collected, at process exit, or via
        ``repro.core.parallel._SEGMENT_POOL.clear()``.  ``False`` restores
        the publish-per-run behaviour (segments unlinked when the pool
        shuts down).
    """

    def __init__(
        self,
        dictionary: RlzDictionary,
        scheme: str = "ZZ",
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        start_method: Optional[str] = None,
        share_memory: Optional[bool] = None,
        persistent_segments: bool = True,
    ) -> None:
        self._dictionary = dictionary
        self._scheme_name = scheme.upper()
        self._workers = resolve_workers(workers)
        if chunk_size is not None and chunk_size <= 0:
            raise FactorizationError("chunk_size must be positive")
        self._chunk_size = chunk_size
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._start_method = start_method
        self._share_memory = share_memory
        self._persistent_segments = bool(persistent_segments)
        self._last_segment_names: Tuple[str, ...] = ()

    @property
    def workers(self) -> int:
        """Effective pool size (1 means serial in-process execution)."""
        return self._workers

    @property
    def scheme_name(self) -> str:
        """Pair-coding scheme used by :meth:`encode_documents`."""
        return self._scheme_name

    @property
    def start_method(self) -> str:
        """The multiprocessing start method pools are created with."""
        return self._start_method

    @property
    def persistent_segments(self) -> bool:
        """Whether published segments are pooled across runs."""
        return self._persistent_segments

    @property
    def last_segment_names(self) -> Tuple[str, ...]:
        """Shared-memory segment names of the most recent pool run.

        Empty when the last run used fork/pickle sharing.  With
        ``persistent_segments`` the named segments stay alive in the pool
        after the run; otherwise they are already unlinked by the time a
        run returns — the names exist so tests can verify either contract.
        """
        return self._last_segment_names

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def encode_documents(self, documents: Sequence[bytes]) -> List[bytes]:
        """Encode every document; blobs are identical to the serial path."""
        return self._run(_encode_chunk, documents)

    def factorize_documents(
        self, documents: Sequence[bytes]
    ) -> List[Tuple[List[int], List[int]]]:
        """Factorize every document into (positions, lengths) streams."""
        return self._run(_factorize_chunk, documents)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run(self, chunk_function, documents: Sequence[bytes]) -> List:
        documents = [bytes(document) for document in documents]
        if not documents:
            return []
        if self._workers == 1 or len(documents) == 1:
            return self._run_serial(chunk_function, documents)
        return self._run_pool(chunk_function, documents)

    def _run_serial(self, chunk_function, documents: List[bytes]) -> List:
        # State is passed explicitly (never through the worker global), so
        # concurrent in-process pipelines cannot observe each other.
        state = (RlzFactorizer(self._dictionary), PairEncoder(self._scheme_name))
        return chunk_function(documents, state)

    def _build_payload(self):
        """Initializer payload for non-fork workers.

        Returns ``(payload, shared, owns_shared)``: ``owns_shared`` is True
        only when this run published its own segments and must unlink them
        on the way out; pooled segments stay alive for the next run.
        """
        shared = None
        owns_shared = False
        if self._share_memory is not False:
            try:
                if self._persistent_segments:
                    shared = _SEGMENT_POOL.acquire(self._dictionary)
                else:
                    shared = _SharedDictionary.publish(self._dictionary)
                    owns_shared = True
            except Exception:
                if self._share_memory is True:
                    raise
                shared = None  # auto mode: fall back to pickled bytes
        if shared is not None:
            return ("shm", shared.descriptor, self._scheme_name), shared, owns_shared
        payload = (
            "pickle",
            (
                self._dictionary.data,
                self._dictionary.sa_algorithm,
                self._dictionary.accelerated,
            ),
            self._scheme_name,
        )
        return payload, None, False

    def _run_pool(self, chunk_function, documents: List[bytes]) -> List:
        global _PARENT_STATE
        workers = min(self._workers, len(documents))
        chunk_size = self._chunk_size or max(1, len(documents) // (workers * 4))
        chunks = [
            documents[index : index + chunk_size]
            for index in range(0, len(documents), chunk_size)
        ]
        context = multiprocessing.get_context(self._start_method)
        shared: Optional[_SharedDictionary] = None
        owns_shared = False
        self._last_segment_names = ()
        # Everything from the parent-state handoff onward sits inside one
        # try/finally: if pool construction (or anything else) raises, the
        # module-global dictionary reference and any run-owned shared-memory
        # segments are still released — no leak outlives the call.  Pooled
        # segments are owned by _SEGMENT_POOL, not this run.
        try:
            if self._dictionary.accelerated:
                # Compile/map it once here: fork workers inherit it mapped,
                # spawn workers find it in the cache.
                native.factorize_kernel()
            if self._start_method == "fork":
                # Forked children share the dictionary, its suffix array
                # and the mapped kernel copy-on-write.
                self._dictionary.suffix_array.prepare()
                payload = None
                _PARENT_STATE = (self._dictionary, self._scheme_name)
            else:
                payload, shared, owns_shared = self._build_payload()
                if shared is not None:
                    self._last_segment_names = shared.segment_names
            with context.Pool(
                processes=workers,
                initializer=_initialize_worker,
                initargs=(payload,),
            ) as pool:
                chunk_results = pool.map(chunk_function, chunks)
        finally:
            _PARENT_STATE = None
            if shared is not None and owns_shared:
                shared.cleanup()
        return [result for chunk in chunk_results for result in chunk]
