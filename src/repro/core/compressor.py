"""High-level RLZ compressor (the paper's ``rlz`` system, Section 3.1).

:class:`RlzCompressor` ties the pieces together:

1. build (or accept) a dictionary sampled from the collection;
2. factorize every document relative to the dictionary;
3. encode each document's factor streams under a pair-coding scheme;
4. record a document map so any document can be located and decoded on its
   own.

The result is an in-memory :class:`CompressedCollection`, which the storage
layer (:mod:`repro.storage`) can persist to disk and serve with random
access.  Compression statistics (ratio, factor statistics, dictionary usage)
are collected during compression because the benchmark tables need them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from ..corpus.document import DocumentCollection
from ..errors import DecodingError
from .dictionary import DictionaryConfig, RlzDictionary, build_dictionary
from .encoder import PairEncoder
from .factorizer import RlzFactorizer
from .stats import DictionaryUsage, FactorStatistics

__all__ = [
    "CompressedCollection",
    "CompressedDocument",
    "CompressionReport",
    "RlzCompressor",
]


@dataclass(frozen=True)
class CompressedDocument:
    """One document's RLZ encoding plus identifying metadata."""

    doc_id: int
    data: bytes
    original_size: int

    @property
    def compressed_size(self) -> int:
        """Size of the encoded blob in bytes."""
        return len(self.data)


@dataclass
class CompressedCollection:
    """An RLZ-compressed collection held in memory.

    The document map is implicit in ``documents`` (blobs are stored per
    document and indexed by ID); :class:`repro.storage.RlzStore` adds the
    on-disk representation with explicit offsets.
    """

    dictionary: RlzDictionary
    scheme_name: str
    documents: List[CompressedDocument] = field(default_factory=list)
    collection_name: str = "collection"

    def __post_init__(self) -> None:
        self._by_id: Dict[int, CompressedDocument] = {
            document.doc_id: document for document in self.documents
        }
        self._encoder = PairEncoder(self.scheme_name)

    # ------------------------------------------------------------------
    # Sizes and ratios
    # ------------------------------------------------------------------
    @property
    def original_size(self) -> int:
        """Total uncompressed size of all documents."""
        return sum(document.original_size for document in self.documents)

    @property
    def encoded_size(self) -> int:
        """Total size of the encoded blobs (excluding the dictionary)."""
        return sum(document.compressed_size for document in self.documents)

    @property
    def total_size(self) -> int:
        """Encoded blobs plus the dictionary (what must be stored)."""
        return self.encoded_size + len(self.dictionary)

    def compression_ratio(self, include_dictionary: bool = True) -> float:
        """Encoded size as a percentage of the original size (paper's Enc. %)."""
        if self.original_size == 0:
            return 0.0
        numerator = self.total_size if include_dictionary else self.encoded_size
        return 100.0 * numerator / self.original_size

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.documents)

    def doc_ids(self) -> List[int]:
        """IDs of all documents, in collection order."""
        return [document.doc_id for document in self.documents]

    def get_blob(self, doc_id: int) -> bytes:
        """The raw encoded blob for a document."""
        try:
            return self._by_id[doc_id].data
        except KeyError as exc:
            raise DecodingError(f"unknown document id {doc_id}") from exc

    def decode_document(self, doc_id: int) -> bytes:
        """Random access: decode a single document by ID."""
        return self._encoder.decode_document(self.get_blob(doc_id), self.dictionary)

    def iter_documents(self) -> Iterator[tuple[int, bytes]]:
        """Decode every document in collection order (sequential access)."""
        for document in self.documents:
            yield document.doc_id, self._encoder.decode_document(document.data, self.dictionary)


@dataclass
class CompressionReport:
    """Statistics gathered while compressing a collection."""

    factor_stats: FactorStatistics
    dictionary_usage: DictionaryUsage
    compression_percent: float
    encoded_bytes: int
    original_bytes: int

    @property
    def average_factor_length(self) -> float:
        """Mean factor length over the whole collection."""
        return self.factor_stats.average_factor_length

    @property
    def unused_dictionary_percent(self) -> float:
        """Percentage of dictionary bytes never referenced by a factor."""
        return self.dictionary_usage.unused_percentage


class RlzCompressor:
    """Compress document collections with relative Lempel-Ziv factorization.

    Parameters
    ----------
    dictionary:
        A pre-built dictionary, or ``None`` to have :meth:`compress` build
        one from the collection using ``dictionary_config``.
    dictionary_config:
        Sampling parameters used when no dictionary is supplied.
    scheme:
        Pair-coding scheme name (``"ZZ"``, ``"ZV"``, ``"UZ"``, ``"UV"`` or
        any other two-letter combination of registered codecs).
    workers:
        Encode-pipeline parallelism: ``None`` or 1 encodes serially, 0 uses
        every core, any other positive value sets the pool size.  The
        encoded blobs are identical regardless of the worker count; see
        :class:`repro.core.parallel.ParallelCompressor`.
    start_method / share_memory:
        Pool configuration forwarded to :class:`ParallelCompressor`:
        the ``multiprocessing`` start method, and whether non-``fork``
        workers attach the dictionary through shared memory (``None`` auto)
        instead of rebuilding the suffix array from pickled bytes.
    jump_start:
        Jump-index configuration for a dictionary built by this compressor:
        ``True``/``"auto"`` (size-based default), ``"dict"``, ``"compact"``
        or ``False``/``"off"``.  Ignored when ``dictionary`` is supplied.
    """

    def __init__(
        self,
        dictionary: Optional[RlzDictionary] = None,
        dictionary_config: Optional[DictionaryConfig] = None,
        scheme: str = "ZZ",
        sa_algorithm: str = "doubling",
        accelerated: bool = True,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
        share_memory: Optional[bool] = None,
        jump_start: bool | str = True,
    ) -> None:
        self._dictionary = dictionary
        self._dictionary_config = dictionary_config
        self._scheme_name = scheme.upper()
        self._sa_algorithm = sa_algorithm
        self._accelerated = accelerated
        self._workers = workers
        self._start_method = start_method
        self._share_memory = share_memory
        self._jump_start = jump_start

    @property
    def scheme_name(self) -> str:
        """The pair-coding scheme this compressor uses."""
        return self._scheme_name

    @property
    def dictionary(self) -> Optional[RlzDictionary]:
        """The dictionary, if one has been built or supplied."""
        return self._dictionary

    def _ensure_dictionary(self, collection: DocumentCollection) -> RlzDictionary:
        if self._dictionary is not None:
            return self._dictionary
        if self._dictionary_config is None:
            # Default: 1% of the collection with 1 KB samples, mirroring the
            # paper's observation that even ~0.1% dictionaries work well.
            size = max(64 * 1024, collection.total_size // 100)
            self._dictionary_config = DictionaryConfig(size=size, sample_size=1024)
        self._dictionary = build_dictionary(
            collection,
            self._dictionary_config,
            sa_algorithm=self._sa_algorithm,
            accelerated=self._accelerated,
            jump_start=self._jump_start,
        )
        return self._dictionary

    def compress(
        self,
        collection: DocumentCollection,
        collect_statistics: bool = False,
    ) -> CompressedCollection | tuple[CompressedCollection, CompressionReport]:
        """Compress ``collection``; optionally also return a statistics report."""
        from .parallel import ParallelCompressor, resolve_workers

        dictionary = self._ensure_dictionary(collection)

        compressed_documents: List[CompressedDocument] = []
        if collect_statistics:
            # Statistics need the materialised factorizations, so this path
            # stays serial and object-based.
            factor_stats = FactorStatistics()
            usage = DictionaryUsage(dictionary)
            factorizer = RlzFactorizer(dictionary)
            encoder = PairEncoder(self._scheme_name)
            for document in collection:
                factorization = factorizer.factorize(document.content)
                blob = encoder.encode(factorization)
                compressed_documents.append(
                    CompressedDocument(
                        doc_id=document.doc_id,
                        data=blob,
                        original_size=document.size,
                    )
                )
                factor_stats.add(factorization)
                usage.add(factorization)
        else:
            # Throughput path: stream-based factorization, optionally fanned
            # out over a worker pool.  Blobs are identical either way.
            pipeline = ParallelCompressor(
                dictionary,
                scheme=self._scheme_name,
                workers=resolve_workers(self._workers),
                start_method=self._start_method,
                share_memory=self._share_memory,
            )
            documents = list(collection)
            blobs = pipeline.encode_documents(
                [document.content for document in documents]
            )
            compressed_documents = [
                CompressedDocument(
                    doc_id=document.doc_id,
                    data=blob,
                    original_size=document.size,
                )
                for document, blob in zip(documents, blobs)
            ]

        compressed = CompressedCollection(
            dictionary=dictionary,
            scheme_name=self._scheme_name,
            documents=compressed_documents,
            collection_name=collection.name,
        )
        if not collect_statistics:
            return compressed
        report = CompressionReport(
            factor_stats=factor_stats,
            dictionary_usage=usage,
            compression_percent=compressed.compression_ratio(),
            encoded_bytes=compressed.encoded_size,
            original_bytes=compressed.original_size,
        )
        return compressed, report
