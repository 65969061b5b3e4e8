"""RLZ document store with random access (the paper's retrieval path).

:class:`RlzStore` persists a :class:`repro.core.CompressedCollection` to a
container file and serves documents from it the way the paper's system
does: the dictionary is loaded once and kept resident in memory, the
document map gives the on-disk extent of each encoded document, and a
request reads exactly that extent, decodes the pair streams and copies the
factors out of the in-memory dictionary.  Every read decodes through
:meth:`repro.core.PairEncoder.decode_document` (or ``decode_window``): one
native kernel call for the paper's four schemes, the Python decoder for
other schemes, without a compiler, and for every blob the kernel rejects.

All reads are charged to a :class:`repro.storage.DiskModel`, so the
benchmark harness can report retrieval rates in the disk-bound regime of
the paper as well as pure CPU decode rates.

Decoded-document caching is delegated to a pluggable
:class:`repro.storage.CacheTier` (``cache=``): :class:`NullCache` (default,
every get decodes — the paper-faithful measurement mode),
:class:`LruCache` (in-process) or :class:`SharedMemoryCache`
(cross-process).
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.compressor import CompressedCollection

# A module attribute only: benchmarks/e2e/spans.py patches
# ``rlz_store.decode_pairs`` to trace the Python decoder.
from ..core.decoder import decode_pairs  # noqa: F401
from ..core.dictionary import RlzDictionary
from ..core.encoder import PairEncoder
from ..errors import StorageError, StoreClosedError
from .cache import CacheTier, NullCache
from .container import ContainerHeader, read_container_header, write_container
from .disk_model import DiskModel
from .document_map import DocumentEntry, DocumentMap

__all__ = ["RlzStore"]


class RlzStore:
    """On-disk RLZ store: one container file, random access per document."""

    store_type = "rlz"

    def __init__(
        self,
        header: ContainerHeader,
        disk: Optional[DiskModel] = None,
        cache: Optional[CacheTier] = None,
    ) -> None:
        if header.store_type != self.store_type:
            raise StorageError(
                f"container holds a {header.store_type!r} store, expected 'rlz'"
            )
        self._header = header
        self._dictionary = RlzDictionary(header.dictionary)
        self._scheme_name = header.metadata["scheme"]
        self._encoder = PairEncoder(self._scheme_name)
        self._disk = disk if disk is not None else DiskModel()
        self._cache = cache if cache is not None else NullCache()
        self._handle = header.path.open("rb")
        self._closed = False
        # Bytes actually materialised by factor decoding (cache hits are
        # free); get_window charges only the factors covering the window,
        # which is how tests and benchmarks verify partial decode pays.
        self._decoded_bytes = 0
        # get()/get_many() may be driven concurrently by the async front's
        # thread pool; the shared file handle's seek+read must be atomic.
        self._io_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def write(
        cls,
        compressed: CompressedCollection,
        path: str | Path,
        extra_metadata: Optional[Dict] = None,
    ) -> Path:
        """Persist a compressed collection to ``path`` and return the path.

        ``extra_metadata`` entries are merged into the container's metadata
        dict (the partition manifest rides here); they must not collide
        with the store's own keys and are ignored by readers that do not
        know them.
        """
        path = Path(path)
        document_map = DocumentMap()
        payload = bytearray()
        for document in compressed.documents:
            document_map.add(
                DocumentEntry(
                    doc_id=document.doc_id,
                    offset=len(payload),
                    length=len(document.data),
                )
            )
            payload += document.data
        metadata = {
            "scheme": compressed.scheme_name,
            "collection": compressed.collection_name,
            "original_size": compressed.original_size,
        }
        if extra_metadata:
            overlap = sorted(metadata.keys() & extra_metadata.keys())
            if overlap:
                raise StorageError(f"extra_metadata collides with store keys: {overlap}")
            metadata.update(extra_metadata)
        write_container(
            path,
            cls.store_type,
            metadata,
            document_map,
            compressed.dictionary.data,
            bytes(payload),
        )
        return path

    @classmethod
    def open(
        cls,
        path: str | Path,
        disk: Optional[DiskModel] = None,
        cache: Optional[CacheTier] = None,
    ) -> "RlzStore":
        """Open an existing RLZ container for reading.

        ``cache`` plugs in a decode-cache tier (see
        :mod:`repro.storage.cache`); repeated-access serving workloads hit
        it instead of re-reading and re-decoding.
        """
        return cls(read_container_header(Path(path)), disk=disk, cache=cache)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def dictionary(self) -> RlzDictionary:
        """The in-memory dictionary used for decoding."""
        return self._dictionary

    @property
    def scheme_name(self) -> str:
        """Pair-coding scheme of the stored encoding."""
        return self._scheme_name

    @property
    def disk(self) -> DiskModel:
        """The disk model charged for payload reads."""
        return self._disk

    @property
    def document_map(self) -> DocumentMap:
        """The document map."""
        return self._header.document_map

    @property
    def stored_size(self) -> int:
        """Size of the container file on disk."""
        return self._header.path.stat().st_size

    @property
    def original_size(self) -> int:
        """Total uncompressed size recorded at write time."""
        return int(self._header.metadata["original_size"])

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    @property
    def cache(self) -> CacheTier:
        """The decode-cache tier serving this store."""
        return self._cache

    @property
    def decode_kernel(self) -> str:
        """``"native"`` or ``"python"``: the decoder serving this store."""
        return self._encoder.decode_kernel

    def compression_percent(self, include_dictionary: bool = False) -> float:
        """Stored payload (optionally plus dictionary) as % of original size."""
        payload = sum(entry.length for entry in self._header.document_map)
        if include_dictionary:
            payload += len(self._dictionary)
        if self.original_size == 0:
            return 0.0
        return 100.0 * payload / self.original_size

    def doc_ids(self) -> List[int]:
        """All stored document IDs in store order."""
        return self._header.document_map.doc_ids()

    def __len__(self) -> int:
        return len(self._header.document_map)

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreClosedError(
                f"store {self._header.path} is closed; reopen it before reading"
            )

    def _read_blob(self, entry: DocumentEntry) -> bytes:
        with self._io_lock:
            self._ensure_open()
            self._disk.charge_read(
                self._header.payload_offset + entry.offset, entry.length
            )
            self._handle.seek(self._header.payload_offset + entry.offset)
            blob = self._handle.read(entry.length)
        if len(blob) != entry.length:
            raise StorageError("payload truncated while reading document")
        self._header.check_extent(entry.offset, entry.length, blob)
        return blob

    @property
    def cache_info(self) -> Dict[str, int]:
        """Decoded-document cache counters (hits, misses, size, capacity)."""
        return self._cache.cache_info()

    @property
    def decoded_bytes(self) -> int:
        """Cumulative bytes materialised by factor decoding.

        Whole-document reads charge the document size; :meth:`get_window`
        charges only the output of the factors intersecting the window.
        Comparing deltas of this counter is how the snippet path proves it
        decodes strictly less than a full-document decode.
        """
        return self._decoded_bytes

    def get(self, doc_id: int) -> bytes:
        """Random access: decode one document."""
        self._ensure_open()
        cached = self._cache.get(doc_id)
        if cached is not None:
            return cached
        document = self._decode(self._header.document_map.lookup(doc_id))
        self._cache.put(doc_id, document)
        return document

    def _decode(self, entry: DocumentEntry) -> bytes:
        """Read and decode one document, charging ``decoded_bytes``."""
        document = self._encoder.decode_document(self._read_blob(entry), self._dictionary)
        self._decoded_bytes += len(document)
        return document

    def get_window(self, doc_id: int, start: int, length: int) -> bytes:
        """Partial decode: ``length`` bytes of one document from ``start``.

        Only the factors whose output intersects ``[start, start+length)``
        are materialised (:meth:`repro.core.PairEncoder.decode_window`), and
        only their output is charged to :attr:`decoded_bytes`.  The window
        is clamped to the document, so over-long requests return what
        exists; a window entirely past the end returns ``b""``.

        This is the snippet-serving path: a SEARCH hit knows the byte
        offset of its first matching term, and the server decodes a window
        around it instead of the whole document.
        """
        self._ensure_open()
        if start < 0 or length < 0:
            raise StorageError(
                f"get_window needs non-negative start/length, "
                f"got start={start} length={length}"
            )
        entry = self._header.document_map.lookup(doc_id)
        window, covered = self._encoder.decode_window(
            self._read_blob(entry), self._dictionary, start, length
        )
        self._decoded_bytes += covered
        return window

    def get_many(self, doc_ids: Sequence[int]) -> List[bytes]:
        """Batch random access: decode several documents.

        Each ID that is not already cached is read and decoded once, even
        when repeated, but the cache *accounting* replays the accesses in
        request order through exactly the :meth:`get` code path: the same
        sequence of IDs produces the same hit/miss counters, the same cache
        contents and the same recency whether it is issued through ``get``
        or ``get_many``.  Only the disk reads are deduplicated.  The result
        order matches ``doc_ids``.
        """
        self._ensure_open()
        # Pass 1 — peek (no counter or recency side effects) to find the IDs
        # that will need a decode, and decode each of them once.
        decoded: Dict[int, bytes] = {}
        for doc_id in doc_ids:
            if doc_id not in decoded and not self._cache.peek(doc_id):
                decoded[doc_id] = self._decode(self._header.document_map.lookup(doc_id))
        # Pass 2 — replay the accesses in order with get's exact accounting.
        results: List[bytes] = []
        for doc_id in doc_ids:
            cached = self._cache.get(doc_id)
            if cached is not None:
                results.append(cached)
                continue
            document = decoded.get(doc_id)
            if document is None:
                # The ID was cached at peek time but evicted during this
                # replay (possible only when the batch overflows a small
                # cache): decode it individually, exactly as ``get`` would.
                document = self._decode(self._header.document_map.lookup(doc_id))
                decoded[doc_id] = document
            results.append(document)
            self._cache.put(doc_id, document)
        return results

    def iter_documents(self) -> Iterator[Tuple[int, bytes]]:
        """Sequential access: decode every document in store order."""
        self._ensure_open()
        for entry in self._header.document_map:
            yield entry.doc_id, self._decode(entry)

    def close(self) -> None:
        """Close the file handle and the cache tier (idempotent)."""
        if self._closed:
            return
        with self._io_lock:
            self._closed = True
            self._handle.close()
        self._cache.close()

    def __enter__(self) -> "RlzStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
