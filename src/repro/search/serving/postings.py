"""The on-disk inverted index served next to a compressed archive.

A :class:`PostingsStore` is one sidecar file (``<container>.idx``) written
at build time and loaded read-only at serving time:

    +-----------------------------------------------------------------+
    | magic "RPIX0001"                                                |
    | u64 doc_count · u64 total_doc_length · u64 term_count           |
    | u64 postings_len · u32 postings_crc                             |
    | u64 doclens_len  · u32 doclens_crc                              |
    | u32 header_crc  (over everything above)                         |
    +-----------------------------------------------------------------+
    | postings section: per term, sorted by term —                    |
    |   uvarint len(term) · term UTF-8 · uvarint df ·                 |
    |   df × (uvarint doc-id delta · uvarint tf · uvarint hit offset) |
    +-----------------------------------------------------------------+
    | doc-length section: per document, sorted by doc id —            |
    |   uvarint count · count × (uvarint doc-id delta · uvarint len)  |
    +-----------------------------------------------------------------+

Posting lists store doc-id *deltas* (ascending ids, first delta is the id
itself) so they varint-compress well; each posting also records the byte
offset of the term's first occurrence in the raw document, which is what
lets the server decode only a window around a hit
(:meth:`repro.storage.RlzStore.get_window`) instead of the whole document
when building query-biased snippets.

Integrity and atomicity mirror the RPRC2 container: every section carries
a CRC32 checked at open (a flipped bit raises
:class:`~repro.errors.CorruptArchiveError`, never a silently wrong
ranking), and writes go to a same-directory temporary that is fsync'd and
``os.replace``\\ d into place, so a crashed build leaves no torn index.
A sidecar whose checksums hold but whose contents do not (a posting for a
document missing from the doc-length table, a zero doc-id delta, a term
that is not UTF-8, a count larger than the bytes left) raises
:class:`~repro.errors.StorageError` at open.

In memory the index is columnar.  Every posting sits in three flat
arrays — doc *row*, term frequency and first-hit offset — grouped by
term in term order and by ascending doc id within a term; a sorted term
list and a start array give each term its slice.  Rows index the dense
doc-id and doc-length arrays, which are sorted by doc id, so row order is
doc-id order.  :meth:`PostingsStore.open` decodes the varint sections
straight into that layout.

Scoring is term-at-a-time Okapi BM25 with numpy, over the shard-local
lists, using either the store's own statistics (a single unpartitioned
archive) or caller-provided :class:`GlobalStats` (a sharded fleet, after
the stats exchange).  It performs the same IEEE operations, in the same
per-document order, as :class:`repro.search.InvertedIndex`, so the two
rankings agree exactly.
"""

from __future__ import annotations

import operator
import os
import struct
from array import array
import zlib
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ...errors import CorruptArchiveError, SearchError, StorageError
from ..inverted_index import bm25_idf
from ..tokenizer import tokenize_text, tokenize_with_offsets

__all__ = [
    "GlobalStats",
    "PostingsStore",
    "ScoredDoc",
    "build_postings",
    "index_sidecar_path",
    "write_postings",
]

_MAGIC = b"RPIX0001"
_COUNTS = struct.Struct("<QQQ")
_SECTION = struct.Struct("<QI")
_U32 = struct.Struct("<I")
#: Nine 7-bit digits: the longest uvarint whose value fits an int64.
_MAX_VARINT_BYTES = 9
_MAX_VALUE = (1 << 63) - 1


def index_sidecar_path(container_path: Union[str, Path]) -> Path:
    """Where the search index for a container lives: ``<container>.idx``."""
    container_path = Path(container_path)
    return container_path.with_name(container_path.name + ".idx")


@dataclass(frozen=True)
class GlobalStats:
    """Collection-wide statistics a sharded SEARCH is scored against.

    ``num_documents`` and ``total_doc_length`` cover the *whole*
    collection; ``document_frequencies`` maps each query term to its
    collection-wide df.  Plugging these into the shard-local scorer makes
    per-shard BM25 scores identical to what one big index over every
    document would compute — which is what lets a fan-out merge produce a
    globally correct ranking.
    """

    num_documents: int
    total_doc_length: int
    document_frequencies: Dict[str, int]


@dataclass(frozen=True)
class ScoredDoc:
    """One ranked hit from a :class:`PostingsStore` scoring pass.

    ``hit_offset`` is the smallest first-occurrence byte offset among the
    query terms that matched this document — the anchor a query-biased
    snippet window is centred on.
    """

    doc_id: int
    score: float
    hit_offset: int


# ----------------------------------------------------------------------
# Varints
# ----------------------------------------------------------------------
def _write_uvarint(buffer: bytearray, value: int) -> None:
    while value >= 0x80:
        buffer.append((value & 0x7F) | 0x80)
        value >>= 7
    buffer.append(value)


def _read_uvarint(blob: bytes, offset: int) -> Tuple[int, int]:
    value = 0
    shift = 0
    while True:
        if offset >= len(blob):
            raise StorageError("postings index truncated inside a varint")
        byte = blob[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7
        if shift > 63:
            raise StorageError("postings index varint overflows 64 bits")


def _encode_uvarints(values: np.ndarray) -> Tuple[bytes, np.ndarray]:
    """Encode non-negative int64 ``values`` as consecutive uvarints.

    Returns the bytes and the ``len(values) + 1`` byte offsets where each
    varint starts (the last is the total length).
    """
    lengths = np.ones(len(values), dtype=np.uint8)
    for shift in range(7, 63, 7):
        lengths += values >= (1 << shift)
    bounds = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(lengths, dtype=np.int64, out=bounds[1:])
    out = np.empty(int(bounds[-1]), dtype=np.uint8)
    digits = (values & 0x7F).astype(np.uint8)
    digits[lengths > 1] |= 0x80
    out[bounds[:-1]] = digits
    del digits
    longer = np.flatnonzero(lengths > 1)
    for digit in range(1, int(lengths.max(initial=0))):
        byte = ((values[longer] >> (7 * digit)) & 0x7F).astype(np.uint8)
        byte[lengths[longer] > digit + 1] |= 0x80
        out[bounds[longer] + digit] = byte
        longer = longer[lengths[longer] > digit + 1]
    return out.tobytes(), bounds


def _decode_uvarints(data: np.ndarray) -> np.ndarray:
    """Decode ``data`` (uint8), a run of whole uvarints, into int64 values.

    Each value is assembled from its terminator (the most significant
    digit) backwards, one digit per pass, over the varints still taking
    continuation bytes; the terminator before a varint stops its walk.
    """
    if len(data) and data[-1] & 0x80:
        raise StorageError("postings index truncated inside a varint")
    padded = np.concatenate((np.zeros(1, np.uint8), data))  # a terminator first
    ends = np.flatnonzero(padded < 0x80)[1:]
    values = padded[ends].astype(np.int64)
    longer = np.flatnonzero(padded[ends - 1] & 0x80)
    for digit in range(1, _MAX_VARINT_BYTES + 1):
        if not len(longer):
            return values
        if digit == _MAX_VARINT_BYTES:
            raise StorageError("postings index varint overflows 63 bits")
        positions = ends[longer] - digit
        values[longer] = (values[longer] << 7) | (padded[positions] & 0x7F)
        longer = longer[padded[positions - 1] >= 0x80]
    return values


def _exact_sum(values: np.ndarray) -> int:
    """The sum of non-negative int64 ``values`` as an exact Python int."""
    return (int((values >> 32).sum()) << 32) + int((values & 0xFFFFFFFF).sum())


# ----------------------------------------------------------------------
# Building and writing
# ----------------------------------------------------------------------
def build_postings(
    documents: Iterable[Tuple[int, Union[str, bytes]]],
) -> "PostingsStore":
    """Tokenise ``documents`` (``(doc_id, text)`` pairs) into an in-memory
    :class:`PostingsStore` ready to be written or queried.

    Text may be ``str`` or UTF-8 ``bytes`` (undecodable bytes are
    replaced, exactly like :meth:`repro.corpus.Document.text`).  Hit
    offsets are recorded as *byte* offsets into the raw document, so the
    serving side can hand them straight to
    :meth:`~repro.storage.RlzStore.get_window`.
    """
    term_ids: Dict[str, int] = {}
    # One entry per posting, in arrival order; sorted into the columnar
    # layout once every document is in.
    posting_terms = array("q")
    posting_docs = array("q")
    posting_tfs = array("q")
    posting_hits = array("q")
    doc_lengths: Dict[int, int] = {}
    for doc_id, content in documents:
        doc_id = int(doc_id)
        if not 0 <= doc_id <= _MAX_VALUE:
            raise SearchError(f"cannot index doc id {doc_id}: outside [0, 2**63)")
        if doc_id in doc_lengths:
            raise SearchError(f"document {doc_id} is already indexed")
        if isinstance(content, (bytes, bytearray)):
            text = bytes(content).decode("utf-8", errors="replace")
        else:
            text = content
        pairs = tokenize_with_offsets(text)
        doc_lengths[doc_id] = len(pairs)
        ascii_text = text.isascii()
        frequencies: Dict[str, Tuple[int, int]] = {}
        for term, char_offset in pairs:
            tf, first = frequencies.get(term, (0, char_offset))
            frequencies[term] = (tf + 1, first)
        for term, (tf, char_offset) in frequencies.items():
            if ascii_text:
                byte_offset = char_offset
            else:
                byte_offset = len(text[:char_offset].encode("utf-8"))
            posting_terms.append(term_ids.setdefault(term, len(term_ids)))
            posting_docs.append(doc_id)
            posting_tfs.append(tf)
            posting_hits.append(byte_offset)

    def column(values: array) -> np.ndarray:
        return np.frombuffer(values, dtype=np.int64)

    terms = sorted(term_ids)
    rank = np.empty(len(terms), dtype=np.int64)
    rank[[term_ids[term] for term in terms]] = np.arange(len(terms))
    term_of = rank[column(posting_terms)]
    docs = column(posting_docs)
    order = np.lexsort((docs, term_of))
    doc_ids = np.array(sorted(doc_lengths), dtype=np.int64)
    return PostingsStore(
        terms,
        np.searchsorted(term_of[order], np.arange(len(terms) + 1)),
        np.searchsorted(doc_ids, docs[order]),
        column(posting_tfs)[order],
        column(posting_hits)[order],
        doc_ids,
        np.array([doc_lengths[doc_id] for doc_id in doc_ids.tolist()], dtype=np.int64),
    )


def write_postings(
    documents: Iterable[Tuple[int, Union[str, bytes]]],
    path: Union[str, Path],
) -> Path:
    """Build an index over ``documents`` and persist it at ``path``."""
    return build_postings(documents).write(path)


class PostingsStore:
    """An inverted index with persistent form and BM25 scoring.

    Construct through :func:`build_postings` (from documents) or
    :meth:`open` (from a sidecar file); the constructor itself takes the
    already-assembled columnar layout:

    * ``terms`` — every term, sorted; term ``i`` owns postings
      ``term_starts[i]:term_starts[i + 1]``;
    * ``rows``, ``term_frequencies``, ``hit_offsets`` — one entry per
      posting, rows strictly ascending within a term;
    * ``doc_ids`` (strictly ascending) and ``doc_lengths`` — one entry per
      row.
    """

    def __init__(
        self,
        terms: List[str],
        term_starts: np.ndarray,
        rows: np.ndarray,
        term_frequencies: np.ndarray,
        hit_offsets: np.ndarray,
        doc_ids: np.ndarray,
        doc_lengths: np.ndarray,
    ) -> None:
        self._terms = terms
        self._term_starts = term_starts
        self._rows = rows
        self._tfs = term_frequencies
        self._hits = hit_offsets
        self._doc_ids = doc_ids
        self._doc_lengths = doc_lengths
        self._total_doc_length = _exact_sum(doc_lengths)

    def _span(self, term: str) -> Tuple[int, int]:
        """The ``[start, stop)`` posting slice of ``term`` (empty if absent)."""
        index = bisect_left(self._terms, term)
        if index < len(self._terms) and self._terms[index] == term:
            return int(self._term_starts[index]), int(self._term_starts[index + 1])
        return 0, 0

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def num_documents(self) -> int:
        """Number of indexed documents."""
        return len(self._doc_ids)

    @property
    def num_terms(self) -> int:
        """Number of distinct terms."""
        return len(self._terms)

    @property
    def total_doc_length(self) -> int:
        """Sum of document lengths in terms (the avgdl numerator)."""
        return self._total_doc_length

    def document_frequency(self, term: str) -> int:
        """Number of indexed documents containing ``term``."""
        start, stop = self._span(term)
        return stop - start

    def postings(self, term: str) -> Sequence[Tuple[int, int, int]]:
        """The ``(doc_id, tf, first_hit_offset)`` list for ``term``."""
        start, stop = self._span(term)
        return list(
            zip(
                self._doc_ids[self._rows[start:stop]].tolist(),
                self._tfs[start:stop].tolist(),
                self._hits[start:stop].tolist(),
            )
        )

    def doc_length(self, doc_id: int) -> int:
        """Length in terms of one indexed document."""
        row = int(np.searchsorted(self._doc_ids, doc_id))
        if row == len(self._doc_ids) or self._doc_ids[row] != doc_id:
            raise KeyError(doc_id)
        return int(self._doc_lengths[row])

    def term_stats(self, query: str) -> Tuple[int, int, Dict[str, int]]:
        """The stats-exchange leg of a sharded search.

        Returns this shard's ``(num_documents, total_doc_length,
        {term: df})`` for the query's terms; a cluster client sums these
        across shards into the :class:`GlobalStats` the scoring leg uses.
        """
        frequencies = {
            term: self.document_frequency(term)
            for term in set(tokenize_text(query))
        }
        return self.num_documents, self._total_doc_length, frequencies

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def search(
        self,
        query: str,
        top_k: int = 20,
        k1: float = 1.2,
        b: float = 0.75,
        global_stats: Optional[GlobalStats] = None,
    ) -> List[ScoredDoc]:
        """Term-at-a-time BM25 over the shard-local postings lists.

        Without ``global_stats`` the store's own counters drive idf and
        avgdl (correct for an unpartitioned archive); with them, scores
        match a single index over the whole collection exactly.  Ties
        break by ascending doc id, the same rule as
        :func:`repro.search.rank_scores`.
        """
        if top_k <= 0:
            raise SearchError("top_k must be positive")
        terms = tokenize_text(query)
        if not terms:
            return []
        if global_stats is None:
            num_documents = self.num_documents
            total_length = self._total_doc_length
        else:
            num_documents = global_stats.num_documents
            total_length = global_stats.total_doc_length
        average_length = (total_length / num_documents if num_documents else 0.0) or 1.0

        # One pass per query term occurrence, in query order (duplicated
        # terms score twice, as they do in InvertedIndex.search).  Each
        # pass evaluates the in-memory index's expressions elementwise and
        # adds into the documents' running scores, so every document sees
        # the same float operations in the same order: scores are
        # bit-equal.  The scatter ``scores[rows] += ...`` is exact because
        # rows within one term are distinct (checked at open).
        scores = np.zeros(len(self._doc_ids))
        hit_offsets = np.full(len(self._doc_ids), _MAX_VALUE, dtype=np.int64)
        touched = np.zeros(len(self._doc_ids), dtype=bool)
        for term in terms:
            start, stop = self._span(term)
            if global_stats is None:
                idf = bm25_idf(num_documents, stop - start)
            else:
                idf = bm25_idf(
                    num_documents, global_stats.document_frequencies.get(term, 0)
                )
            if idf == 0.0 or start == stop:
                continue
            rows = self._rows[start:stop]
            tf = self._tfs[start:stop]
            length_norm = 1.0 - b + b * (self._doc_lengths[rows] / average_length)
            scores[rows] += idf * (tf * (k1 + 1.0) / (tf + k1 * length_norm))
            hit_offsets[rows] = np.minimum(hit_offsets[rows], self._hits[start:stop])
            touched[rows] = True
        candidates = np.flatnonzero(touched)
        scores = scores[candidates]
        order = np.lexsort((candidates, -scores))[:top_k]
        ranked = candidates[order]
        return [
            ScoredDoc(doc_id, score, hit_offset)
            for doc_id, score, hit_offset in zip(
                self._doc_ids[ranked].tolist(),
                scores[order].tolist(),
                hit_offsets[ranked].tolist(),
            )
        ]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def write(self, path: Union[str, Path]) -> Path:
        """Persist the index at ``path`` (atomic tmp+fsync+replace)."""
        path = Path(path)
        triples = np.empty((len(self._rows), 3), dtype=np.int64)
        docs = triples[:, 0]
        np.take(self._doc_ids, self._rows, out=docs)
        firsts = self._term_starts[:-1]
        first_ids = docs[firsts]
        docs[1:] -= docs[:-1].copy()
        docs[firsts] = first_ids  # each list's first delta is its id
        triples[:, 1] = self._tfs
        triples[:, 2] = self._hits
        body, bounds = _encode_uvarints(triples.ravel())
        del triples
        # memoryviews index to Python ints without a per-term list
        term_bounds = memoryview(bounds[3 * self._term_starts])
        starts = memoryview(self._term_starts)
        postings_blob = bytearray()
        for index, term in enumerate(self._terms):
            encoded = term.encode("utf-8")
            _write_uvarint(postings_blob, len(encoded))
            postings_blob += encoded
            _write_uvarint(postings_blob, starts[index + 1] - starts[index])
            postings_blob += body[term_bounds[index] : term_bounds[index + 1]]
        del body
        doc_deltas = np.diff(self._doc_ids, prepend=0)
        doclens_blob, _ = _encode_uvarints(
            np.concatenate(
                (
                    [len(self._doc_ids)],
                    np.column_stack((doc_deltas, self._doc_lengths)).ravel(),
                )
            ).astype(np.int64)
        )

        header = bytearray(_MAGIC)
        header += _COUNTS.pack(
            len(self._doc_ids), self._total_doc_length, len(self._terms)
        )
        header += _SECTION.pack(len(postings_blob), zlib.crc32(postings_blob))
        header += _SECTION.pack(len(doclens_blob), zlib.crc32(doclens_blob))
        header += _U32.pack(zlib.crc32(header))

        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with tmp.open("wb") as handle:
                handle.write(header)
                handle.write(postings_blob)
                handle.write(doclens_blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise
        return path

    @classmethod
    def open(cls, path: Union[str, Path]) -> "PostingsStore":
        """Load a sidecar index, verifying every section checksum and the
        structure the scorer relies on."""
        path = Path(path)
        blob = path.read_bytes()
        head_size = len(_MAGIC) + _COUNTS.size + 2 * _SECTION.size + _U32.size
        if len(blob) < head_size:
            raise StorageError(f"{path} is too short to be a postings index")
        if blob[: len(_MAGIC)] != _MAGIC:
            raise StorageError(f"{path} is not a postings index (bad magic)")
        header = blob[: head_size - _U32.size]
        (header_crc,) = _U32.unpack_from(blob, head_size - _U32.size)
        if zlib.crc32(header) != header_crc:
            raise CorruptArchiveError(
                f"postings index {path}: header failed its CRC32 check"
            )
        offset = len(_MAGIC)
        doc_count, total_doc_length, term_count = _COUNTS.unpack_from(blob, offset)
        offset += _COUNTS.size
        postings_len, postings_crc = _SECTION.unpack_from(blob, offset)
        offset += _SECTION.size
        doclens_len, doclens_crc = _SECTION.unpack_from(blob, offset)
        if len(blob) != head_size + postings_len + doclens_len:
            raise StorageError(
                f"postings index {path}: recorded sections need "
                f"{head_size + postings_len + doclens_len} bytes, "
                f"file has {len(blob)}"
            )
        postings_blob = blob[head_size : head_size + postings_len]
        doclens_blob = blob[head_size + postings_len :]
        if zlib.crc32(postings_blob) != postings_crc:
            raise CorruptArchiveError(
                f"postings index {path}: postings section failed its CRC32 check"
            )
        if zlib.crc32(doclens_blob) != doclens_crc:
            raise CorruptArchiveError(
                f"postings index {path}: doc-length section failed its CRC32 check"
            )
        doc_ids, doc_lengths = _parse_doc_lengths(path, doclens_blob, doc_count)
        terms, term_starts, rows, tfs, hits = _parse_postings(
            path, postings_blob, term_count, doc_ids
        )
        store = cls(terms, term_starts, rows, tfs, hits, doc_ids, doc_lengths)
        if store.total_doc_length != total_doc_length:
            raise StorageError(
                f"postings index {path}: doc lengths sum to "
                f"{store.total_doc_length}, header says {total_doc_length}"
            )
        return store


# ----------------------------------------------------------------------
# Parsing a sidecar's sections
# ----------------------------------------------------------------------
def _parse_doc_lengths(
    path: Path, blob: bytes, doc_count: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The doc-length section as ``(doc_ids, doc_lengths)`` arrays."""
    count, position = _read_uvarint(blob, 0)
    if count != doc_count:
        raise StorageError(
            f"postings index {path}: doc-length table holds "
            f"{count} documents, header says {doc_count}"
        )
    if 2 * count > len(blob) - position:
        raise StorageError(
            f"postings index {path}: {count} documents cannot fit in "
            f"{len(blob) - position} doc-length bytes"
        )
    values = _decode_uvarints(np.frombuffer(blob, dtype=np.uint8, offset=position))
    if len(values) != 2 * count:
        raise StorageError(f"postings index {path}: trailing doc-length bytes")
    doc_ids = _ascending_ids(path, values[0::2])
    return doc_ids, values[1::2].copy()


def _ascending_ids(path: Path, deltas: np.ndarray) -> np.ndarray:
    """Prefix-sum doc-id ``deltas`` (each below 2**63), checking that every
    id after the first is larger than the one before; a sum that passes
    2**64 wraps to a smaller value, so the same check rejects it."""
    ids = np.cumsum(deltas.view(np.uint64))
    if len(ids) and (np.any(ids[1:] <= ids[:-1]) or ids[-1] > _MAX_VALUE):
        raise StorageError(
            f"postings index {path}: doc ids are not strictly ascending"
        )
    return ids.view(np.int64)


def _parse_postings(
    path: Path, blob: bytes, term_count: int, doc_ids: np.ndarray
) -> Tuple[List[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The postings section in the columnar layout of :class:`PostingsStore`.

    The term headers are walked in Python; the posting varints between
    them are decoded together with numpy.  A term takes at least two bytes
    and a posting at least three, so every count is checked against the
    bytes left before anything is sized by it.
    """
    if term_count > len(blob) // 2:
        raise StorageError(
            f"postings index {path}: {term_count} terms cannot fit in "
            f"{len(blob)} postings bytes"
        )
    data = np.frombuffer(blob, dtype=np.uint8)
    # Every varint ends at a byte below 0x80.  ``varint`` counts such bytes
    # before ``position``, so a posting block of ``3 * df`` varints that
    # starts there ends just after terminator ``varint + 3 * df - 1``.
    terminator_at = memoryview(np.flatnonzero(data < 0x80))
    size = len(blob)
    raws: List[bytes] = []
    frequencies = array("q")
    block_starts = array("q")
    block_stops = array("q")
    position = 0
    varint = 0
    try:
        for _ in range(term_count):
            length = blob[position]
            if length < 0x80:
                position += 1
            else:
                length, position = _read_uvarint(blob, position)
            end = position + length
            if end > size:
                raise StorageError(f"postings index {path}: truncated term")
            raw = blob[position:end]
            df = blob[end]
            if df < 0x80:
                position = end + 1
            else:
                df, position = _read_uvarint(blob, end)
            if df == 0 or 3 * df > size - position:
                raise StorageError(
                    f"postings index {path}: {df} postings cannot fit in "
                    f"{size - position} bytes"
                )
            # the length and df varints, the term's bytes below 0x80, the
            # posting block
            varint += 2 + 3 * df + (
                length if raw.isascii() else sum(byte < 0x80 for byte in raw)
            )
            block_starts.append(position)
            position = terminator_at[varint - 1] + 1
            block_stops.append(position)
            frequencies.append(df)
            raws.append(raw)
    except IndexError:
        raise StorageError(f"postings index {path}: truncated postings") from None
    if position != size:
        raise StorageError(f"postings index {path}: trailing postings bytes")
    terminator_at.release()  # free the positions before the decode below
    if any(map(operator.ge, raws, raws[1:])):
        raise StorageError(
            f"postings index {path}: terms are not strictly ascending"
        )
    try:
        terms = list(map(bytes.decode, raws))
    except UnicodeDecodeError as error:
        raise StorageError(
            f"postings index {path}: a term is not UTF-8 ({error})"
        ) from None
    del raws

    # Keep only the posting blocks' bytes: one run of whole varints.
    edges = np.zeros(len(blob) + 1, dtype=np.int8)
    edges[np.frombuffer(block_starts, dtype=np.int64)] = 1
    edges[np.frombuffer(block_stops, dtype=np.int64)] -= 1
    posting_bytes = data[np.cumsum(edges[:-1], dtype=np.int8).view(bool)]
    del edges
    values = _decode_uvarints(posting_bytes)
    del posting_bytes
    term_starts = np.zeros(term_count + 1, dtype=np.int64)
    frequencies = np.frombuffer(frequencies, dtype=np.int64)
    np.cumsum(frequencies, out=term_starts[1:])
    firsts = term_starts[:-1]

    tfs = values[1::3].copy()
    if np.any(tfs == 0):
        raise StorageError(
            f"postings index {path}: a posting has term frequency 0"
        )
    hits = values[2::3].copy()
    # Per-term prefix sums of the deltas, from one running sum: mod 2**64
    # the difference to the sum before each list is exact.
    deltas = values[0::3].view(np.uint64)
    running = np.cumsum(deltas)
    before = running[firsts] - deltas[firsts]
    ids = running - np.repeat(before, frequencies)
    not_ascending = ids[1:] <= ids[:-1]
    not_ascending[firsts[1:] - 1] = False  # each list starts afresh
    if not_ascending.any():
        raise StorageError(
            f"postings index {path}: a posting list's doc ids are not "
            "strictly ascending"
        )
    rows = np.searchsorted(doc_ids.view(np.uint64), ids)
    known = rows < len(doc_ids)
    known[known] = doc_ids.view(np.uint64)[rows[known]] == ids[known]
    if not known.all():
        missing = int(ids[np.argmin(known)])
        raise StorageError(
            f"postings index {path}: a posting names document {missing}, "
            "which the doc-length table does not hold"
        )
    return terms, term_starts, rows, tfs, hits
