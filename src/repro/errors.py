"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class DictionaryError(ReproError):
    """Raised when an RLZ dictionary cannot be built or is invalid."""


class FactorizationError(ReproError):
    """Raised when relative LZ factorization fails or produces invalid factors."""


class EncodingError(ReproError):
    """Raised when a factor stream cannot be encoded."""


class DecodingError(ReproError):
    """Raised when an encoded document or factor stream cannot be decoded."""


class StorageError(ReproError):
    """Raised on container/document-map corruption or I/O failures."""


class StoreClosedError(StorageError):
    """Raised when a document is requested from a store after ``close()``.

    Subclasses :class:`StorageError` so existing ``except StorageError``
    handlers keep working; the dedicated type lets serving fronts
    distinguish "store is gone" from data corruption.
    """


class CorruptArchiveError(StorageError):
    """Raised when stored bytes fail their recorded CRC-32 checksum.

    Subclasses :class:`StorageError` (corruption is a storage failure),
    but the dedicated type separates "the disk lied" from "the request
    was wrong": a flipped bit in a container block or dictionary raises
    this instead of silently decoding wrong bytes.  ``repro verify``
    scans a whole archive for it.
    """


class ConfigurationError(ReproError):
    """Raised when an :class:`repro.api.ArchiveConfig` (or one of its spec
    dataclasses) is inconsistent or names an unknown tier/scheme/policy."""


class ProtocolError(ReproError):
    """Raised on a malformed, truncated or incompatible wire exchange.

    Covers the :mod:`repro.serve` framing layer: bad magic, unsupported
    protocol versions, oversized or truncated frames, and responses that
    do not parse.  A connection that raised it cannot be trusted further
    and is closed by whichever side detected the problem.
    """


class DeadlineExceededError(ReproError):
    """Raised when a request's deadline passed before its result arrived.

    Deadlines propagate on the wire (every request frame carries a
    millisecond budget), so this is raised on *both* sides: the server
    answers ``R_TIMEOUT`` for work whose deadline expired while queueing
    (instead of decoding a document nobody is waiting for), and clients
    raise it locally once the budget is spent — including time lost to
    dial retries and backoff sleeps.  The connection itself is fine.
    """


class ServerBusyError(ProtocolError):
    """Raised when a server kept answering ``R_BUSY`` past the retry budget.

    The endpoint is alive but its ``max_inflight`` gate stayed saturated
    for every backoff retry.  Unlike its :class:`ProtocolError` parent it
    does *not* mean the connection is untrustworthy — the cluster layer
    treats it as "re-route this work to a replica", not as a dead peer.
    """


class WrongShardError(ReproError):
    """Raised when a request reached a server that does not own the doc id.

    Partitioned servers answer ``R_WRONG_SHARD`` instead of
    serving bytes for an arc they no longer own, carrying the epoch of
    their current shard map.  Cluster clients treat it as "refresh the
    shard map and retry against the owner", never as a data error: the
    document exists, it just lives elsewhere.  ``epoch`` is the server's
    shard-map epoch at refusal time (0 when unknown).
    """

    def __init__(self, message: str = "", epoch: int = 0):
        super().__init__(message)
        self.epoch = int(epoch)


class CorpusError(ReproError):
    """Raised when a corpus cannot be generated, read, or written."""


class SearchError(ReproError):
    """Raised by the search-engine substrate (indexing and querying)."""


class BenchmarkError(ReproError):
    """Raised by the benchmark harness when an experiment is misconfigured."""
