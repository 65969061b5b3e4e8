"""The length-prefixed binary wire protocol between RlzServer and clients.

Framing
-------

Every message on the wire is one *frame*.  A request frame carries the
opcode, a **u32 request id**, a **u32 deadline** (milliseconds of budget
remaining when the frame was sent; 0 = no deadline) and a trailing **u32
CRC32** over the frame body; a reply frame is the same without the
deadline::

    request:
    +----------------+--------+------------------+----------------+---------+-------------+
    | length (u32 BE)| opcode | request id (u32) | deadline (u32) | payload | crc32 (u32) |
    +----------------+--------+------------------+----------------+---------+-------------+

    reply:
    +----------------+--------+------------------+-----------------+-------------+
    | length (u32 BE)| opcode | request id (u32) |   payload ...   | crc32 (u32) |
    +----------------+--------+------------------+-----------------+-------------+

``length`` counts everything after the prefix, so a frame occupies
``4 + length`` bytes.  Frames larger than ``max_frame_bytes`` are rejected
with :class:`~repro.errors.ProtocolError` *before* the payload is read, on
both sides, and a body whose CRC32 does not match surfaces as a
``ProtocolError`` instead of silently wrong document bytes.

Request ids let replies arrive out of order, so one connection carries
many requests in flight.  Clients allocate ids from 1; **id 0 is
reserved** for the handshake and for connection-level ``R_ERROR`` frames
the server cannot attribute to a single request (e.g. an oversized frame
rejected before its id was read).  The deadline lets the server drop work
whose deadline passed while it queued (``R_TIMEOUT``) instead of decoding
documents nobody is waiting for.

Handshake
---------

A connection starts with ``HELLO``: a request frame with request id 0 and
deadline 0 whose payload is the 4-byte magic ``RLZN``, the protocol
version and the *name* of the archive the client wants (empty selects the
server's default).  The server answers ``R_HELLO`` carrying its version,
or ``R_ERROR`` — both reply frames with request id 0 — if the magic,
version or archive name is unacceptable.  Both sides require the peer's
version to equal :data:`PROTOCOL_VERSION`; anything else is a
:class:`~repro.errors.ProtocolError` and the connection closes.

Opcodes
-------

``SCAN`` streams ``R_CHUNK`` frames (many documents each) terminated by
``R_END``, every stream frame tagged with the originating request id so
stream frames and ordinary replies interleave on one connection.
``R_BUSY`` is the backpressure hint: the server's ``max_inflight`` gate is
saturated and the client should retry after a short delay (every read
opcode is idempotent); its payload carries the server-observed queue depth
and a suggested retry-after (see :func:`pack_busy`).  ``HEALTH`` reports
per-archive readiness/load without competing for the inflight gate.

The *partitioned-serving* opcodes: ``SHARD_MAP`` asks a server for its
current placement map — epoch, endpoint list and ``virtual_nodes`` — and
is answered (``R_SHARD_MAP``) outside the backpressure gate like
``HEALTH``, so clients can bootstrap and refresh routing even from a
saturated server.  A partitioned server that receives a request for a doc
id outside the arc it owns answers ``R_WRONG_SHARD`` carrying its current
epoch instead of serving stale bytes; clients refresh their map and retry
against the owner.  Two administrative opcodes drive live rebalancing:
``INGEST`` hands a recipient a batch of ``(doc_id, bytes)`` items (the
:func:`pack_chunk` layout; an empty batch is a resume probe) and is
answered with ``R_DOC_IDS`` listing *every* doc id the recipient has
staged so far, and ``INSTALL_MAP`` (payload = :func:`pack_shard_map`)
commits a new map epoch — the server recomputes its owned arc, rewrites
its store, and answers ``R_SHARD_MAP`` with the map it now serves.

The *search-serving* opcode: ``SEARCH`` carries a query string, the
requested ``top_k``, a snippet window size in bytes and a flags byte; the
server ranks its shard-local :class:`~repro.search.serving.PostingsStore`
with term-at-a-time BM25 and answers ``R_SEARCH`` with scored hits (plus a
query-biased snippet decoded through the windowed partial-decode path
when a window was requested).  Two flag bits drive sharded fan-out: a
*stats-only* SEARCH returns the shard's local term statistics instead of
results (the first leg of a cluster search), and a request carrying
*global stats* (collection-wide doc count, total length and per-term
document frequencies, summed by the client from every shard's stats
reply) is scored against those, which makes per-shard scores identical to
a single index over the whole collection — the merge step is then a pure
``(-score, doc_id)`` sort.

Errors travel as structured ``R_ERROR`` frames carrying a numeric code
from :data:`ERROR_CODES` plus the message, so the client re-raises the
*same* :mod:`repro.errors` class the server-side archive raised — a remote
miss is a :class:`~repro.errors.StorageError` exactly like a local one.

The payload codecs below are deliberately struct-based (no pickling): the
protocol surface is auditable and language-independent.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type

from .. import errors
from ..errors import ProtocolError

__all__ = [
    "MAGIC",
    "PROTOCOL_V5",
    "PROTOCOL_VERSION",
    "SEARCH_STATS_ONLY",
    "SEARCH_GLOBAL_STATS",
    "SearchHit",
    "DEFAULT_MAX_FRAME_BYTES",
    "MAX_ARCHIVE_NAME_BYTES",
    "Opcode",
    "ERROR_CODES",
    "encode_request",
    "encode_reply",
    "split_request",
    "split_reply",
    "frame_length",
    "pack_busy",
    "unpack_busy",
    "pack_health",
    "unpack_health",
    "pack_hello",
    "unpack_hello",
    "pack_hello_reply",
    "unpack_hello_reply",
    "pack_doc_id",
    "unpack_doc_id",
    "pack_doc_ids",
    "unpack_doc_ids",
    "pack_documents",
    "unpack_documents",
    "pack_scan",
    "unpack_scan",
    "pack_chunk",
    "unpack_chunk",
    "pack_stats",
    "unpack_stats",
    "pack_search",
    "unpack_search",
    "pack_search_results",
    "unpack_search_results",
    "pack_search_stats",
    "unpack_search_stats",
    "pack_shard_map",
    "unpack_shard_map",
    "pack_wrong_shard",
    "unpack_wrong_shard",
    "pack_error",
    "unpack_error",
    "raise_error_frame",
]

MAGIC = b"RLZN"
#: The one protocol version: both sides of a handshake must announce it,
#: and a peer announcing any other is refused (there is no negotiation).
PROTOCOL_V5 = 5
PROTOCOL_VERSION = PROTOCOL_V5
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024
MAX_ARCHIVE_NAME_BYTES = 255
#: Largest deadline expressible on the wire (u32 milliseconds).
MAX_DEADLINE_MS = 0xFFFFFFFF

_LEN = struct.Struct("!I")
_U8 = struct.Struct("!B")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_I64 = struct.Struct("!q")
_HELLO = struct.Struct("!4sB")
_OP_REQ = struct.Struct("!BI")
_OP_REQ_DL = struct.Struct("!BII")
_BUSY = struct.Struct("!II")
_U64 = struct.Struct("!Q")
_F64 = struct.Struct("!d")
_SHARD_MAP_HEAD = struct.Struct("!QIH")  # epoch, virtual nodes, endpoint count
_SEARCH_HEAD = struct.Struct("!BII")  # flags, top_k, snippet window bytes
_SEARCH_STATS_HEAD = struct.Struct("!QQH")  # docs, total length, term count
_SEARCH_HIT_HEAD = struct.Struct("!qdII")  # doc id, score, snippet start/len


class Opcode:
    """Request and response opcodes (one byte on the wire).

    Requests use the low half, responses set the high bit; ``R_ERROR`` can
    answer any request.
    """

    HELLO = 0x01
    PING = 0x02
    GET = 0x03
    GET_MANY = 0x04
    # 0x05 and its reply 0x85 are retired (an old one-document-per-frame
    # stream): never reuse them, so a stray old frame cannot be misread.
    STATS = 0x06
    DOC_IDS = 0x07
    SCAN = 0x08
    HEALTH = 0x09
    SHARD_MAP = 0x0A
    INGEST = 0x0B
    INSTALL_MAP = 0x0C
    SEARCH = 0x0D

    R_HELLO = 0x81
    R_PONG = 0x82
    R_DOC = 0x83
    R_DOCS = 0x84
    R_END = 0x86
    R_STATS = 0x87
    R_DOC_IDS = 0x88
    R_BUSY = 0x89
    R_CHUNK = 0x8A
    R_HEALTH = 0x8B
    R_TIMEOUT = 0x8C
    R_SHARD_MAP = 0x8D
    R_WRONG_SHARD = 0x8E
    R_SEARCH = 0x8F
    R_ERROR = 0xFF


#: Wire code for every exported error class.  The codes are part of the
#: protocol: never renumber, only append.  ``decode`` walks the exception's
#: MRO, so an unregistered subclass degrades to its nearest ancestor.
ERROR_CODES: Dict[Type[BaseException], int] = {
    errors.ReproError: 1,
    errors.DictionaryError: 2,
    errors.FactorizationError: 3,
    errors.EncodingError: 4,
    errors.DecodingError: 5,
    errors.StorageError: 6,
    errors.StoreClosedError: 7,
    errors.ConfigurationError: 8,
    errors.CorpusError: 9,
    errors.SearchError: 10,
    errors.BenchmarkError: 11,
    errors.ProtocolError: 12,
    errors.ServerBusyError: 13,
    errors.DeadlineExceededError: 14,
    errors.CorruptArchiveError: 15,
    errors.WrongShardError: 16,
}

_CODE_TO_ERROR: Dict[int, Type[BaseException]] = {
    code: cls for cls, code in ERROR_CODES.items()
}


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_request(
    opcode: int, request_id: int, deadline_ms: int, payload: bytes = b""
) -> bytes:
    """One request frame: opcode, request id, u32 deadline (ms; 0 = none),
    payload and a trailing CRC32 over the frame body."""
    if not 0 <= deadline_ms <= MAX_DEADLINE_MS:
        raise ProtocolError(
            f"deadline must be in [0, {MAX_DEADLINE_MS}] ms, got {deadline_ms}"
        )
    body = _OP_REQ_DL.pack(opcode, request_id, deadline_ms) + payload
    return _LEN.pack(len(body) + _U32.size) + body + _U32.pack(zlib.crc32(body))


def encode_reply(opcode: int, request_id: int, payload: bytes = b"") -> bytes:
    """One reply frame: opcode, request id, payload and a trailing CRC32."""
    body = _OP_REQ.pack(opcode, request_id) + payload
    return _LEN.pack(len(body) + _U32.size) + body + _U32.pack(zlib.crc32(body))


def _strip_crc(body: bytes) -> bytes:
    """Verify and remove the trailing CRC32 of a frame body."""
    if len(body) < _U32.size:
        raise ProtocolError(f"malformed frame: {len(body)} bytes (no checksum)")
    content, trailer = body[: -_U32.size], body[-_U32.size :]
    if zlib.crc32(content) != _U32.unpack(trailer)[0]:
        raise ProtocolError(
            "corrupt frame: body failed its CRC32 check (bytes damaged in transit)"
        )
    return content


def frame_length(prefix: bytes, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> int:
    """Validate a 4-byte length prefix and return the body length.

    Raises :class:`ProtocolError` if the prefix is short, the frame is
    empty (no opcode) or the body exceeds ``max_frame_bytes``.
    """
    if len(prefix) != 4:
        raise ProtocolError(
            f"truncated frame: expected a 4-byte length prefix, got {len(prefix)} bytes"
        )
    (length,) = _LEN.unpack(prefix)
    if length < 1:
        raise ProtocolError("malformed frame: zero-length body (no opcode)")
    if length > max_frame_bytes:
        raise ProtocolError(
            f"oversized frame: {length} bytes exceeds the {max_frame_bytes}-byte limit"
        )
    return length


def split_request(body: bytes) -> Tuple[int, int, int, bytes]:
    """Split (and CRC-verify) a request body into
    ``(opcode, request_id, deadline_ms, payload)``."""
    content = _strip_crc(body)
    if len(content) < _OP_REQ_DL.size:
        raise ProtocolError(
            f"malformed request frame: {len(content)} bytes "
            f"(need opcode + request id + deadline)"
        )
    opcode, request_id, deadline_ms = _OP_REQ_DL.unpack_from(content)
    return opcode, request_id, deadline_ms, content[_OP_REQ_DL.size :]


def split_reply(body: bytes) -> Tuple[int, int, bytes]:
    """Split (and CRC-verify) a reply body into ``(opcode, request_id, payload)``."""
    content = _strip_crc(body)
    if len(content) < _OP_REQ.size:
        raise ProtocolError(
            f"malformed reply frame: {len(content)} bytes (need opcode + request id)"
        )
    opcode, request_id = _OP_REQ.unpack_from(content)
    return opcode, request_id, content[_OP_REQ.size :]


# ----------------------------------------------------------------------
# Payload codecs
# ----------------------------------------------------------------------
def pack_hello(version: int = PROTOCOL_VERSION, archive: str = "") -> bytes:
    """A HELLO payload: magic, protocol version, archive name."""
    name = archive.encode("utf-8")
    if len(name) > MAX_ARCHIVE_NAME_BYTES:
        raise ProtocolError(
            f"archive name too long: {len(name)} bytes > {MAX_ARCHIVE_NAME_BYTES}"
        )
    return _HELLO.pack(MAGIC, version) + _U16.pack(len(name)) + name


def unpack_hello(payload: bytes) -> Tuple[int, str]:
    """Validate a HELLO payload; return ``(version, archive_name)``.

    The archive-name field is required; an empty name selects the
    server's default archive.
    """
    if len(payload) < _HELLO.size + _U16.size:
        raise ProtocolError(f"malformed HELLO: {len(payload)} bytes")
    magic, version = _HELLO.unpack_from(payload)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}: not an rlz-serve client")
    (name_length,) = _U16.unpack_from(payload, _HELLO.size)
    expected = _HELLO.size + _U16.size + name_length
    if len(payload) != expected:
        raise ProtocolError(
            f"malformed HELLO: archive name needs {expected} bytes, "
            f"got {len(payload)}"
        )
    name = payload[_HELLO.size + _U16.size :].decode("utf-8", errors="replace")
    return version, name


def pack_hello_reply(version: int = PROTOCOL_VERSION) -> bytes:
    return _U8.pack(version)


def unpack_hello_reply(payload: bytes) -> int:
    if len(payload) != 1:
        raise ProtocolError(f"malformed HELLO reply: {len(payload)} bytes")
    return payload[0]


def pack_doc_id(doc_id: int) -> bytes:
    return _I64.pack(doc_id)


def unpack_doc_id(payload: bytes) -> int:
    if len(payload) != _I64.size:
        raise ProtocolError(f"malformed doc-id payload: {len(payload)} bytes")
    return _I64.unpack(payload)[0]


def pack_doc_ids(doc_ids: Sequence[int]) -> bytes:
    return _U32.pack(len(doc_ids)) + struct.pack(f"!{len(doc_ids)}q", *doc_ids)


def unpack_doc_ids(payload: bytes) -> List[int]:
    if len(payload) < _U32.size:
        raise ProtocolError("malformed doc-id list: missing count")
    (count,) = _U32.unpack_from(payload)
    expected = _U32.size + count * _I64.size
    if len(payload) != expected:
        raise ProtocolError(
            f"malformed doc-id list: {count} ids need {expected} bytes, "
            f"got {len(payload)}"
        )
    return list(struct.unpack_from(f"!{count}q", payload, _U32.size))


def pack_documents(documents: Sequence[bytes]) -> bytes:
    parts = [_U32.pack(len(documents))]
    for document in documents:
        parts.append(_U32.pack(len(document)))
        parts.append(document)
    return b"".join(parts)


def unpack_documents(payload: bytes) -> List[bytes]:
    if len(payload) < _U32.size:
        raise ProtocolError("malformed document batch: missing count")
    (count,) = _U32.unpack_from(payload)
    documents: List[bytes] = []
    offset = _U32.size
    for _ in range(count):
        if len(payload) < offset + _U32.size:
            raise ProtocolError("malformed document batch: truncated length")
        (length,) = _U32.unpack_from(payload, offset)
        offset += _U32.size
        if len(payload) < offset + length:
            raise ProtocolError("malformed document batch: truncated document")
        documents.append(payload[offset : offset + length])
        offset += length
    if offset != len(payload):
        raise ProtocolError("malformed document batch: trailing bytes")
    return documents


def pack_scan(chunk_docs: int = 0, doc_ids: Optional[Sequence[int]] = None) -> bytes:
    """A SCAN request: chunk-size hint plus an optional doc-id subset.

    ``chunk_docs=0`` lets the server pick its default chunking; an empty
    ``doc_ids`` (or ``None``) scans every document in store order.
    """
    ids = list(doc_ids) if doc_ids is not None else []
    return _U32.pack(chunk_docs) + pack_doc_ids(ids)


def unpack_scan(payload: bytes) -> Tuple[int, List[int]]:
    if len(payload) < _U32.size:
        raise ProtocolError("malformed SCAN request: missing chunk size")
    (chunk_docs,) = _U32.unpack_from(payload)
    return chunk_docs, unpack_doc_ids(payload[_U32.size :])


def pack_chunk(items: Sequence[Tuple[int, bytes]]) -> bytes:
    """One R_CHUNK payload: a batch of ``(doc_id, document)`` pairs."""
    parts = [_U32.pack(len(items))]
    for doc_id, document in items:
        parts.append(_I64.pack(doc_id))
        parts.append(_U32.pack(len(document)))
        parts.append(document)
    return b"".join(parts)


def unpack_chunk(payload: bytes) -> List[Tuple[int, bytes]]:
    if len(payload) < _U32.size:
        raise ProtocolError("malformed scan chunk: missing count")
    (count,) = _U32.unpack_from(payload)
    items: List[Tuple[int, bytes]] = []
    offset = _U32.size
    for _ in range(count):
        if len(payload) < offset + _I64.size + _U32.size:
            raise ProtocolError("malformed scan chunk: truncated item header")
        (doc_id,) = _I64.unpack_from(payload, offset)
        offset += _I64.size
        (length,) = _U32.unpack_from(payload, offset)
        offset += _U32.size
        if len(payload) < offset + length:
            raise ProtocolError("malformed scan chunk: truncated document")
        items.append((doc_id, payload[offset : offset + length]))
        offset += length
    if offset != len(payload):
        raise ProtocolError("malformed scan chunk: trailing bytes")
    return items


def pack_busy(retry_after_ms: int = 0, queue_depth: int = 0) -> bytes:
    """An R_BUSY payload: suggested retry-after (ms) + observed queue depth.

    ``retry_after_ms=0`` means "no hint, use your own backoff".
    """
    return _BUSY.pack(
        min(max(0, retry_after_ms), MAX_DEADLINE_MS), min(max(0, queue_depth), MAX_DEADLINE_MS)
    )


def unpack_busy(payload: bytes) -> Tuple[int, int]:
    """Decode an R_BUSY payload to ``(retry_after_ms, queue_depth)``."""
    if len(payload) != _BUSY.size:
        raise ProtocolError(f"malformed busy payload: {len(payload)} bytes")
    retry_after_ms, queue_depth = _BUSY.unpack(payload)
    return retry_after_ms, queue_depth


def pack_health(health: Dict[str, float]) -> bytes:
    """An R_HEALTH payload: the server's readiness/load snapshot (JSON)."""
    return json.dumps(health, sort_keys=True).encode("utf-8")


def unpack_health(payload: bytes) -> Dict[str, float]:
    try:
        health = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed health payload: {exc}") from exc
    if not isinstance(health, dict):
        raise ProtocolError("malformed health payload: not an object")
    return health


def pack_stats(stats: Dict[str, float]) -> bytes:
    return json.dumps(stats, sort_keys=True).encode("utf-8")


def unpack_stats(payload: bytes) -> Dict[str, float]:
    try:
        stats = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed stats payload: {exc}") from exc
    if not isinstance(stats, dict):
        raise ProtocolError("malformed stats payload: not an object")
    return stats


def pack_shard_map(epoch: int, endpoints: Sequence[str], virtual_nodes: int) -> bytes:
    """An R_SHARD_MAP payload: epoch, virtual-node count, endpoint labels.

    Layout: u64 epoch, u32 virtual_nodes, u16 endpoint count, then each
    endpoint as a u16 length + UTF-8 ``host:port`` label.  Endpoint order
    is part of the map (hash-ring tie-breaks are positional), so it is
    preserved exactly.
    """
    if epoch < 0 or epoch > 0xFFFFFFFFFFFFFFFF:
        raise ProtocolError(f"shard-map epoch out of range: {epoch}")
    if virtual_nodes < 1 or virtual_nodes > 0xFFFFFFFF:
        raise ProtocolError(f"shard-map virtual_nodes out of range: {virtual_nodes}")
    if len(endpoints) > 0xFFFF:
        raise ProtocolError(f"shard map too large: {len(endpoints)} endpoints")
    parts = [_SHARD_MAP_HEAD.pack(epoch, virtual_nodes, len(endpoints))]
    for endpoint in endpoints:
        label = endpoint.encode("utf-8")
        if len(label) > 0xFFFF:
            raise ProtocolError(f"endpoint label too long: {len(label)} bytes")
        parts.append(_U16.pack(len(label)))
        parts.append(label)
    return b"".join(parts)


def unpack_shard_map(payload: bytes) -> Tuple[int, List[str], int]:
    """Decode an R_SHARD_MAP payload to ``(epoch, endpoints, virtual_nodes)``."""
    if len(payload) < _SHARD_MAP_HEAD.size:
        raise ProtocolError(f"malformed shard map: {len(payload)} bytes")
    epoch, virtual_nodes, count = _SHARD_MAP_HEAD.unpack_from(payload)
    endpoints: List[str] = []
    offset = _SHARD_MAP_HEAD.size
    for _ in range(count):
        if len(payload) < offset + _U16.size:
            raise ProtocolError("malformed shard map: truncated endpoint length")
        (length,) = _U16.unpack_from(payload, offset)
        offset += _U16.size
        if len(payload) < offset + length:
            raise ProtocolError("malformed shard map: truncated endpoint label")
        endpoints.append(payload[offset : offset + length].decode("utf-8"))
        offset += length
    if offset != len(payload):
        raise ProtocolError("malformed shard map: trailing bytes")
    return epoch, endpoints, virtual_nodes


def pack_wrong_shard(epoch: int, doc_id: int) -> bytes:
    """An R_WRONG_SHARD payload: the refusing server's epoch + the doc id."""
    if epoch < 0 or epoch > 0xFFFFFFFFFFFFFFFF:
        raise ProtocolError(f"shard-map epoch out of range: {epoch}")
    return _U64.pack(epoch) + _I64.pack(doc_id)


def unpack_wrong_shard(payload: bytes) -> Tuple[int, int]:
    """Decode an R_WRONG_SHARD payload to ``(epoch, doc_id)``."""
    if len(payload) != _U64.size + _I64.size:
        raise ProtocolError(f"malformed wrong-shard payload: {len(payload)} bytes")
    (epoch,) = _U64.unpack_from(payload)
    (doc_id,) = _I64.unpack_from(payload, _U64.size)
    return epoch, doc_id


# ----------------------------------------------------------------------
# Search
# ----------------------------------------------------------------------
#: SEARCH flag: return the shard's local term statistics (doc count,
#: total doc length, per-term df) instead of ranked results — the first
#: leg of a sharded fan-out.
SEARCH_STATS_ONLY = 0x01
#: SEARCH flag: the request carries collection-wide statistics to score
#: against (the second leg); without it the server uses its own index's.
SEARCH_GLOBAL_STATS = 0x02
_SEARCH_FLAGS = SEARCH_STATS_ONLY | SEARCH_GLOBAL_STATS
MAX_QUERY_BYTES = 0xFFFF


@dataclass(frozen=True)
class SearchHit:
    """One ranked SEARCH result as it travels on the wire.

    ``snippet`` is the server-decoded window around the first query-term
    hit (empty when no window was requested) and ``snippet_start`` its
    byte offset inside the document.
    """

    doc_id: int
    score: float
    snippet: bytes = b""
    snippet_start: int = 0


def _pack_term_frequencies(frequencies: Dict[str, int]) -> bytes:
    if len(frequencies) > 0xFFFF:
        raise ProtocolError(f"too many query terms: {len(frequencies)}")
    parts = []
    for term in sorted(frequencies):
        encoded = term.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ProtocolError(f"query term too long: {len(encoded)} bytes")
        parts.append(_U16.pack(len(encoded)))
        parts.append(encoded)
        parts.append(_U64.pack(frequencies[term]))
    return b"".join(parts)


def _unpack_term_frequencies(
    payload: bytes, offset: int, count: int
) -> Tuple[Dict[str, int], int]:
    frequencies: Dict[str, int] = {}
    for _ in range(count):
        if len(payload) < offset + _U16.size:
            raise ProtocolError("malformed term stats: truncated term length")
        (length,) = _U16.unpack_from(payload, offset)
        offset += _U16.size
        if len(payload) < offset + length + _U64.size:
            raise ProtocolError("malformed term stats: truncated term entry")
        term = payload[offset : offset + length].decode("utf-8", errors="replace")
        offset += length
        (frequencies[term],) = _U64.unpack_from(payload, offset)
        offset += _U64.size
    return frequencies, offset


def pack_search(
    query: str,
    top_k: int = 20,
    snippet_chars: int = 0,
    stats_only: bool = False,
    global_stats: Optional[Tuple[int, int, Dict[str, int]]] = None,
) -> bytes:
    """A SEARCH request payload.

    ``global_stats`` is ``(num_documents, total_doc_length, {term: df})``
    for the whole collection; passing it makes the shard score against
    collection-wide statistics.  ``stats_only`` asks for the shard's
    local statistics instead of results (``global_stats`` is meaningless
    then and rejected).
    """
    if stats_only and global_stats is not None:
        raise ProtocolError("a stats-only SEARCH cannot carry global stats")
    if top_k < 0 or top_k > 0xFFFFFFFF:
        raise ProtocolError(f"top_k out of range: {top_k}")
    if snippet_chars < 0 or snippet_chars > 0xFFFFFFFF:
        raise ProtocolError(f"snippet_chars out of range: {snippet_chars}")
    encoded = query.encode("utf-8")
    if len(encoded) > MAX_QUERY_BYTES:
        raise ProtocolError(f"query too long: {len(encoded)} bytes")
    flags = 0
    if stats_only:
        flags |= SEARCH_STATS_ONLY
    if global_stats is not None:
        flags |= SEARCH_GLOBAL_STATS
    payload = [
        _SEARCH_HEAD.pack(flags, top_k, snippet_chars),
        _U16.pack(len(encoded)),
        encoded,
    ]
    if global_stats is not None:
        num_documents, total_doc_length, frequencies = global_stats
        payload.append(
            _SEARCH_STATS_HEAD.pack(num_documents, total_doc_length, len(frequencies))
        )
        payload.append(_pack_term_frequencies(frequencies))
    return b"".join(payload)


def unpack_search(
    payload: bytes,
) -> Tuple[str, int, int, bool, Optional[Tuple[int, int, Dict[str, int]]]]:
    """Decode a SEARCH payload to ``(query, top_k, snippet_chars,
    stats_only, global_stats)``."""
    if len(payload) < _SEARCH_HEAD.size + _U16.size:
        raise ProtocolError(f"malformed SEARCH request: {len(payload)} bytes")
    flags, top_k, snippet_chars = _SEARCH_HEAD.unpack_from(payload)
    if flags & ~_SEARCH_FLAGS:
        raise ProtocolError(f"malformed SEARCH request: unknown flags 0x{flags:02x}")
    offset = _SEARCH_HEAD.size
    (query_length,) = _U16.unpack_from(payload, offset)
    offset += _U16.size
    if len(payload) < offset + query_length:
        raise ProtocolError("malformed SEARCH request: truncated query")
    query = payload[offset : offset + query_length].decode("utf-8", errors="replace")
    offset += query_length
    stats_only = bool(flags & SEARCH_STATS_ONLY)
    global_stats = None
    if flags & SEARCH_GLOBAL_STATS:
        if stats_only:
            raise ProtocolError("malformed SEARCH request: stats-only with globals")
        if len(payload) < offset + _SEARCH_STATS_HEAD.size:
            raise ProtocolError("malformed SEARCH request: truncated global stats")
        num_documents, total_doc_length, count = _SEARCH_STATS_HEAD.unpack_from(
            payload, offset
        )
        offset += _SEARCH_STATS_HEAD.size
        frequencies, offset = _unpack_term_frequencies(payload, offset, count)
        global_stats = (num_documents, total_doc_length, frequencies)
    if offset != len(payload):
        raise ProtocolError("malformed SEARCH request: trailing bytes")
    return query, top_k, snippet_chars, stats_only, global_stats


_R_SEARCH_RESULTS = 0
_R_SEARCH_STATS = 1


def pack_search_results(hits: Sequence[SearchHit]) -> bytes:
    """An R_SEARCH payload carrying ranked results (kind byte 0)."""
    parts = [_U8.pack(_R_SEARCH_RESULTS), _U32.pack(len(hits))]
    for hit in hits:
        parts.append(
            _SEARCH_HIT_HEAD.pack(
                hit.doc_id, hit.score, hit.snippet_start, len(hit.snippet)
            )
        )
        parts.append(hit.snippet)
    return b"".join(parts)


def pack_search_stats(
    num_documents: int, total_doc_length: int, frequencies: Dict[str, int]
) -> bytes:
    """An R_SEARCH payload carrying shard-local term stats (kind byte 1)."""
    return (
        _U8.pack(_R_SEARCH_STATS)
        + _SEARCH_STATS_HEAD.pack(num_documents, total_doc_length, len(frequencies))
        + _pack_term_frequencies(frequencies)
    )


def _split_search_reply(payload: bytes, expected_kind: int, what: str) -> bytes:
    if not payload:
        raise ProtocolError("malformed search reply: empty payload")
    if payload[0] != expected_kind:
        raise ProtocolError(
            f"malformed search reply: expected {what}, got kind {payload[0]}"
        )
    return payload[1:]


def unpack_search_results(payload: bytes) -> List[SearchHit]:
    """Decode a results-kind R_SEARCH payload."""
    body = _split_search_reply(payload, _R_SEARCH_RESULTS, "results")
    if len(body) < _U32.size:
        raise ProtocolError("malformed search results: missing count")
    (count,) = _U32.unpack_from(body)
    offset = _U32.size
    hits: List[SearchHit] = []
    for _ in range(count):
        if len(body) < offset + _SEARCH_HIT_HEAD.size:
            raise ProtocolError("malformed search results: truncated hit header")
        doc_id, score, snippet_start, snippet_length = _SEARCH_HIT_HEAD.unpack_from(
            body, offset
        )
        offset += _SEARCH_HIT_HEAD.size
        if len(body) < offset + snippet_length:
            raise ProtocolError("malformed search results: truncated snippet")
        snippet = body[offset : offset + snippet_length]
        offset += snippet_length
        hits.append(SearchHit(doc_id, score, snippet, snippet_start))
    if offset != len(body):
        raise ProtocolError("malformed search results: trailing bytes")
    return hits


def unpack_search_stats(payload: bytes) -> Tuple[int, int, Dict[str, int]]:
    """Decode a stats-kind R_SEARCH payload to ``(num_documents,
    total_doc_length, {term: df})``."""
    body = _split_search_reply(payload, _R_SEARCH_STATS, "stats")
    if len(body) < _SEARCH_STATS_HEAD.size:
        raise ProtocolError(f"malformed search stats: {len(body)} bytes")
    num_documents, total_doc_length, count = _SEARCH_STATS_HEAD.unpack_from(body)
    frequencies, offset = _unpack_term_frequencies(
        body, _SEARCH_STATS_HEAD.size, count
    )
    if offset != len(body):
        raise ProtocolError("malformed search stats: trailing bytes")
    return num_documents, total_doc_length, frequencies


# ----------------------------------------------------------------------
# Error frames
# ----------------------------------------------------------------------
def pack_error(code: int, message: str) -> bytes:
    return _U16.pack(code) + message.encode("utf-8", errors="replace")


def unpack_error(payload: bytes) -> Tuple[int, str]:
    if len(payload) < _U16.size:
        raise ProtocolError(f"malformed error frame: {len(payload)} bytes")
    (code,) = _U16.unpack_from(payload)
    return code, payload[_U16.size :].decode("utf-8", errors="replace")


def pack_error_for(exc: BaseException) -> bytes:
    """An ``R_ERROR`` payload for an exception.

    The exact class wins; otherwise the MRO is walked so subclasses map to
    their nearest registered ancestor (and anything non-repro to code 0,
    which decodes as a plain :class:`~repro.errors.ReproError`).
    """
    code = ERROR_CODES.get(type(exc))
    if code is None:
        for base in type(exc).__mro__:
            if base in ERROR_CODES:
                code = ERROR_CODES[base]
                break
        else:
            code = 0
    return pack_error(code, str(exc))


def raise_error_frame(payload: bytes) -> None:
    """Re-raise the error carried by an ``R_ERROR`` payload.

    Unknown codes degrade to :class:`~repro.errors.ReproError` rather than
    failing the decode: a newer server may know error types this client
    does not.
    """
    code, message = unpack_error(payload)
    raise _CODE_TO_ERROR.get(code, errors.ReproError)(message)


def describe_opcode(opcode: int) -> str:
    """Human-readable opcode name (for error messages and stats keys)."""
    for name, value in vars(Opcode).items():
        if not name.startswith("_") and value == opcode:
            return name.lower()
    return f"0x{opcode:02x}"


#: Optional ``__all__`` additions used by the server/client modules.
__all__ += ["describe_opcode", "pack_error_for"]
