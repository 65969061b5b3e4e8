"""The :class:`RlzArchive` service facade.

The paper's point is cheap random access to a compressed web collection at
serving time; this facade makes that the *shape of the API*.  Instead of
the build-pipeline dance —

    compressor = RlzCompressor(dictionary_config=..., scheme=..., workers=...)
    compressed = compressor.compress(collection)
    RlzStore.write(compressed, path)
    store = RlzStore.open(path, cache=...)

— there are two entry points:

    archive = RlzArchive.build(collection_or_docs, config, path)
    archive = RlzArchive.open(path, config)

both returning a ready-to-serve archive whose ``get`` / ``get_many`` /
``iter_documents`` record per-request statistics (documents, bytes,
seconds, cache hits/misses), with every tuning decision living in one
declarative :class:`ArchiveConfig`.  The legacy constructors remain fully
supported underneath — the facade is composition, not replacement.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.compressor import RlzCompressor
from ..core.dictionary import DictionaryConfig
from ..corpus.document import Document, DocumentCollection
from ..errors import ConfigurationError
from ..storage.rlz_store import RlzStore
from .config import ArchiveConfig

__all__ = ["ArchiveStats", "RequestStats", "RlzArchive"]

#: Anything ``RlzArchive.build`` accepts as the documents to archive.
DocumentSource = Union[
    DocumentCollection,
    Iterable[Union[Document, bytes, str, Tuple[int, Union[bytes, str]]]],
]


@dataclass(frozen=True)
class RequestStats:
    """What one ``get`` / ``get_many`` / ``iter_documents`` request cost."""

    operation: str
    documents: int
    bytes_served: int
    seconds: float
    cache_hits: int
    cache_misses: int


@dataclass
class ArchiveStats:
    """Cumulative serving statistics for one archive handle."""

    requests: int = 0
    documents: int = 0
    bytes_served: int = 0
    seconds: float = 0.0

    def record(self, request: RequestStats) -> None:
        """Fold one request into the totals."""
        self.requests += 1
        self.documents += request.documents
        self.bytes_served += request.bytes_served
        self.seconds += request.seconds


def _coerce_content(content: Union[bytes, str]) -> bytes:
    if isinstance(content, str):
        return content.encode("utf-8")
    return bytes(content)


def _as_collection(source: DocumentSource, name: str = "archive") -> DocumentCollection:
    """Normalise any accepted document source into a DocumentCollection."""
    if isinstance(source, DocumentCollection):
        return source
    if isinstance(source, (bytes, str)):
        raise ConfigurationError(
            "build() takes a collection or an iterable of documents, "
            "not a single document; wrap it in a list"
        )
    documents: List[Document] = []
    for index, item in enumerate(source):
        if isinstance(item, Document):
            documents.append(item)
        elif isinstance(item, tuple):
            if len(item) != 2:
                raise ConfigurationError(
                    f"document tuple must be (doc_id, content); got {item!r}"
                )
            doc_id, content = item
            documents.append(
                Document(
                    doc_id=int(doc_id),
                    url=f"memory://{name}/{int(doc_id)}",
                    content=_coerce_content(content),
                )
            )
        elif isinstance(item, (bytes, bytearray, str)):
            documents.append(
                Document(
                    doc_id=index,
                    url=f"memory://{name}/{index}",
                    content=_coerce_content(item),
                )
            )
        else:
            raise ConfigurationError(
                "documents must be Document, bytes, str or (doc_id, content) "
                f"tuples; got {type(item).__name__}"
            )
    if not documents:
        raise ConfigurationError("cannot build an archive from zero documents")
    return DocumentCollection(documents, name=name)


class RlzArchive:
    """A built-and-opened RLZ archive, ready to serve documents.

    Construct through :meth:`build` or :meth:`open`; the constructor itself
    wraps an already-open :class:`RlzStore` (the escape hatch for advanced
    callers who assembled the store manually).
    """

    def __init__(self, store: RlzStore, config: ArchiveConfig, path: Path) -> None:
        self._store = store
        self._config = config
        self._path = Path(path)
        self._totals = ArchiveStats()
        self._last_request: Optional[RequestStats] = None
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        collection_or_docs: DocumentSource,
        config: Optional[ArchiveConfig] = None,
        path: Optional[Union[str, Path]] = None,
    ) -> "RlzArchive":
        """Compress ``collection_or_docs`` to ``path`` and open it for serving.

        Accepts a :class:`DocumentCollection`, an iterable of
        :class:`Document` objects, raw ``bytes``/``str`` payloads (IDs
        assigned by position) or ``(doc_id, content)`` tuples.  One call
        subsumes the legacy compress → ``RlzStore.write`` → ``open`` dance.
        """
        if path is None:
            raise ConfigurationError(
                "build() needs a container path (the archive is an on-disk store)"
            )
        config = config or ArchiveConfig()
        collection = _as_collection(collection_or_docs)
        spec = config.dictionary
        compressor = RlzCompressor(
            dictionary_config=DictionaryConfig(
                size=spec.sized_for(collection.total_size),
                sample_size=spec.sample_size,
                policy=spec.policy,
                prefix_fraction=spec.prefix_fraction,
                seed=spec.seed,
            ),
            scheme=config.encoding.scheme,
            sa_algorithm=spec.sa_algorithm,
            accelerated=spec.accelerated,
            workers=config.parallel.workers,
            start_method=config.parallel.start_method,
            share_memory=config.parallel.share_memory,
        )
        compressed = compressor.compress(collection)
        RlzStore.write(compressed, path)
        if config.search.enabled:
            from ..search.serving import index_sidecar_path, write_postings

            write_postings(
                ((document.doc_id, document.content) for document in collection),
                index_sidecar_path(path),
            )
        return cls.open(path, config)

    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        config: Optional[ArchiveConfig] = None,
    ) -> "RlzArchive":
        """Open an existing archive for serving with ``config``'s cache tier."""
        config = config or ArchiveConfig()
        tier = config.cache.build_tier()
        try:
            store = RlzStore.open(Path(path), cache=tier)
        except Exception:
            # The store never took ownership (bad path, wrong container
            # type, ...): release the tier here or a shared-memory segment
            # would outlive the failed open.
            tier.close()
            raise
        return cls(store, config, Path(path))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        """Path of the container file."""
        return self._path

    @property
    def config(self) -> ArchiveConfig:
        """The configuration this archive was opened with."""
        return self._config

    @property
    def store(self) -> RlzStore:
        """The underlying store (escape hatch for legacy integrations)."""
        return self._store

    @property
    def scheme_name(self) -> str:
        """Pair-coding scheme of the stored encoding."""
        return self._store.scheme_name

    @property
    def disk(self):
        """The store's disk model (archives satisfy the retrieval-measurement
        protocol of :func:`repro.bench.measure_retrieval`)."""
        return self._store.disk

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._store.closed

    @property
    def last_request(self) -> Optional[RequestStats]:
        """Statistics of the most recent request (``None`` before any)."""
        with self._stats_lock:
            return self._last_request

    def doc_ids(self) -> List[int]:
        """All stored document IDs in store order."""
        return self._store.doc_ids()

    def __len__(self) -> int:
        return len(self._store)

    def compression_percent(self, include_dictionary: bool = True) -> float:
        """Stored payload (plus dictionary by default) as % of original size."""
        return self._store.compression_percent(include_dictionary=include_dictionary)

    def cache_info(self) -> Dict[str, int]:
        """Counters of the serving cache tier."""
        return self._store.cache_info

    def stats(self) -> Dict[str, float]:
        """Cumulative serving statistics plus live cache counters."""
        with self._stats_lock:
            totals = ArchiveStats(
                requests=self._totals.requests,
                documents=self._totals.documents,
                bytes_served=self._totals.bytes_served,
                seconds=self._totals.seconds,
            )
        snapshot: Dict[str, float] = {
            "requests": totals.requests,
            "documents": totals.documents,
            "bytes_served": totals.bytes_served,
            "seconds": totals.seconds,
        }
        for key, value in self._store.cache_info.items():
            snapshot[f"cache_{key}"] = value
        return snapshot

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _record(
        self,
        operation: str,
        documents: int,
        bytes_served: int,
        seconds: float,
        cache_before: Dict[str, int],
    ) -> RequestStats:
        cache_after = self._store.cache_info
        request = RequestStats(
            operation=operation,
            documents=documents,
            bytes_served=bytes_served,
            seconds=seconds,
            cache_hits=cache_after["hits"] - cache_before["hits"],
            cache_misses=cache_after["misses"] - cache_before["misses"],
        )
        with self._stats_lock:
            self._last_request = request
            self._totals.record(request)
        return request

    def get(self, doc_id: int) -> bytes:
        """Random access: one decoded document."""
        cache_before = self._store.cache_info
        start = time.perf_counter()
        document = self._store.get(doc_id)
        elapsed = time.perf_counter() - start
        self._record("get", 1, len(document), elapsed, cache_before)
        return document

    def get_many(self, doc_ids: Sequence[int]) -> List[bytes]:
        """Batch random access (each missing document decoded once)."""
        cache_before = self._store.cache_info
        start = time.perf_counter()
        documents = self._store.get_many(doc_ids)
        elapsed = time.perf_counter() - start
        self._record(
            "get_many",
            len(documents),
            sum(len(document) for document in documents),
            elapsed,
            cache_before,
        )
        return documents

    def iter_documents(self) -> Iterator[Tuple[int, bytes]]:
        """Sequential scan; stats recorded when the iteration completes."""
        cache_before = self._store.cache_info
        start = time.perf_counter()
        count = 0
        total = 0
        for doc_id, document in self._store.iter_documents():
            count += 1
            total += len(document)
            yield doc_id, document
        self._record(
            "iter_documents", count, total, time.perf_counter() - start, cache_before
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the store and its cache tier (idempotent)."""
        self._store.close()

    def __enter__(self) -> "RlzArchive":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
