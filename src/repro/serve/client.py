"""Clients that make a remote archive look exactly like a local one.

:class:`RlzClient` is the synchronous client: it implements the same
:class:`repro.api.ArchiveView` protocol as :class:`repro.api.RlzArchive`,
so any code written against the facade — examples, benchmarks, ``repro
get`` — runs unchanged whether it holds a local archive or a socket to an
:class:`repro.serve.RlzServer`.  Error types round-trip through the wire
protocol's structured error frames: a remote miss raises the very same
:class:`~repro.errors.StorageError` a local miss does.

The module is one **sans-IO core** under two thin drivers.  The core
takes bytes and returns bytes, sleep durations or typed errors, and
holds every decision both clients make: the :class:`Request` spec of
each call, the one reply classifier (:func:`check_reply`) and the busy
and connection-retry decisions of one call (:class:`RetryState`), which
also carries the call's :class:`~repro.serve.retry.Deadline` onto every
request frame so the server drops work nobody waits for any more.

:class:`RlzClient` keeps a small **connection pool** (requests check a
connection out for one exchange or one stream; a surplus above the idle
pool is closed on return), **pipelining** (:meth:`RlzClient.pipelined_get`
keeps a window of requests in flight on one connection and correlates
out-of-order replies) and **bulk scans** (:meth:`RlzClient.scan` streams
``R_CHUNK`` batches).  :class:`AsyncRlzClient` multiplexes every
concurrent coroutine over **one** connection: a background reader
resolves each tagged reply to the future that asked for it.  The drivers
differ only in how they dial, send, receive and sleep.  Every read
opcode is idempotent, so a connection that dies mid-request is retried
on a fresh one; protocol violations are never retried.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
import threading
import time
from collections import deque
from typing import (
    Any,
    Callable,
    Container,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import (
    DeadlineExceededError,
    ProtocolError,
    ServerBusyError,
    StoreClosedError,
    WrongShardError,
)
from . import protocol
from .protocol import Opcode
from .retry import Deadline, RetryBudget, full_jitter, hinted_backoff

__all__ = ["AsyncRlzClient", "RlzClient"]

#: Failures of the transport, not answers from the server: the request
#: may be retried on a fresh connection (or, in a cluster, a replica).
CONNECTION_ERRORS = (OSError, asyncio.TimeoutError)

#: Idle connections :class:`RlzClient` keeps for reuse; more may be open
#: at once, and the surplus is closed on return.
_POOL_SIZE = 2

_UNSET = object()


# ----------------------------------------------------------------------
# Sans-IO core: request specs
# ----------------------------------------------------------------------
class Request(NamedTuple):
    """One call on the wire: what to send, which reply answers it, and
    how to turn that reply's payload into the call's result."""

    opcode: int
    payload: bytes
    expect: int
    parse: Callable[[bytes], Any]


def get_request(doc_id: int) -> Request:
    return Request(Opcode.GET, protocol.pack_doc_id(doc_id), Opcode.R_DOC, bytes)


def get_many_request(doc_ids: Sequence[int]) -> Request:
    doc_ids = list(doc_ids)

    def parse(body: bytes) -> List[bytes]:
        documents = protocol.unpack_documents(body)
        if len(documents) != len(doc_ids):
            raise ProtocolError(
                f"get_many asked for {len(doc_ids)} documents, got {len(documents)}"
            )
        return documents

    payload = protocol.pack_doc_ids(doc_ids)
    return Request(Opcode.GET_MANY, payload, Opcode.R_DOCS, parse)


def search_request(
    query: str,
    top_k: int,
    snippet_chars: int,
    global_stats: Optional[Tuple[int, int, Dict[str, int]]],
) -> Request:
    payload = protocol.pack_search(
        query, top_k=top_k, snippet_chars=snippet_chars, global_stats=global_stats
    )
    parse = protocol.unpack_search_results
    return Request(Opcode.SEARCH, payload, Opcode.R_SEARCH, parse)


def search_stats_request(query: str) -> Request:
    payload = protocol.pack_search(query, stats_only=True)
    parse = protocol.unpack_search_stats
    return Request(Opcode.SEARCH, payload, Opcode.R_SEARCH, parse)


def ingest_request(items: Sequence[Tuple[int, bytes]]) -> Request:
    payload = protocol.pack_chunk(list(items))
    return Request(Opcode.INGEST, payload, Opcode.R_DOC_IDS, protocol.unpack_doc_ids)


def install_map_request(
    epoch: int, labels: Sequence[str], virtual_nodes: int
) -> Request:
    payload = protocol.pack_shard_map(epoch, list(labels), virtual_nodes)
    parse = protocol.unpack_shard_map
    return Request(Opcode.INSTALL_MAP, payload, Opcode.R_SHARD_MAP, parse)


DOC_IDS = Request(Opcode.DOC_IDS, b"", Opcode.R_DOC_IDS, protocol.unpack_doc_ids)
STATS = Request(Opcode.STATS, b"", Opcode.R_STATS, protocol.unpack_stats)
HEALTH = Request(Opcode.HEALTH, b"", Opcode.R_HEALTH, protocol.unpack_health)
PING = Request(Opcode.PING, b"", Opcode.R_PONG, bytes)
SHARD_MAP = Request(
    Opcode.SHARD_MAP, b"", Opcode.R_SHARD_MAP, protocol.unpack_shard_map
)


def hello_frame(archive: str) -> bytes:
    """The HELLO request: request id 0, no deadline."""
    payload = protocol.pack_hello(archive=archive)
    return protocol.encode_request(Opcode.HELLO, 0, 0, payload)


def check_hello_reply(opcode: int, payload: bytes) -> None:
    """Accept an ``R_HELLO`` carrying :data:`~repro.serve.protocol.PROTOCOL_VERSION`;
    re-raise a handshake ``R_ERROR``; reject anything else."""
    if opcode == Opcode.R_ERROR:
        protocol.raise_error_frame(payload)
    if opcode != Opcode.R_HELLO:
        raise ProtocolError(
            f"handshake expected R_HELLO, got {protocol.describe_opcode(opcode)}"
        )
    version = protocol.unpack_hello_reply(payload)
    if version != protocol.PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: server speaks {version}, "
            f"client speaks {protocol.PROTOCOL_VERSION}"
        )


# ----------------------------------------------------------------------
# Sans-IO core: the reply classifier
# ----------------------------------------------------------------------
class BusyReply(ServerBusyError):
    """An ``R_BUSY`` reply; ``retry_after`` is the server's hint in
    seconds (0 = none).  Drivers hand it to :meth:`RetryState.on_busy`;
    it escapes only where no retry applies (mid-stream)."""

    def __init__(self, retry_after: float) -> None:
        super().__init__("server busy")
        self.retry_after = retry_after


def check_reply(
    reply: int, reply_id: int, body: bytes, sent: Container[int], expect: int
) -> bytes:
    """Classify one reply frame: its payload, or the typed error it stands for.

    ``sent`` holds the request ids the reply may answer (one for an
    exchange, the in-flight window for a pipeline).
    """
    if reply_id == 0 and reply == Opcode.R_ERROR:
        # Request id 0 is reserved: the server could not attribute the
        # error to any single request.
        protocol.raise_error_frame(body)
    if reply_id not in sent:
        raise ProtocolError(
            f"response correlation broke: got a reply for request {reply_id}, "
            f"which is not in flight"
        )
    if reply == expect:
        return body
    if reply == Opcode.R_TIMEOUT:
        raise DeadlineExceededError(
            body.decode("utf-8", "replace") or "request deadline exceeded"
        )
    if reply == Opcode.R_BUSY:
        retry_after_ms, _depth = protocol.unpack_busy(body)
        raise BusyReply(retry_after_ms / 1000.0)
    if reply == Opcode.R_WRONG_SHARD:
        epoch, doc_id = protocol.unpack_wrong_shard(body)
        raise WrongShardError(
            f"document {doc_id} is not owned by this shard (map epoch {epoch})",
            epoch=epoch,
        )
    if reply == Opcode.R_ERROR:
        protocol.raise_error_frame(body)
    raise ProtocolError(
        f"expected {protocol.describe_opcode(expect)}, "
        f"got {protocol.describe_opcode(reply)}"
    )


# ----------------------------------------------------------------------
# Sans-IO core: the retry state
# ----------------------------------------------------------------------
class RetryState:
    """The retry decisions of one logical call.

    A driver reports an ``R_BUSY`` reply or a connection failure and gets
    back the sleep before trying again, or the error to raise instead.
    Busy and connection retries are counted separately, each with its own
    exponential backoff; every retry spends a token of the shared
    :class:`RetryBudget`, and no backoff may outlive the call's deadline.
    """

    __slots__ = (
        "deadline", "_retries", "_busy_retries", "_delay", "_budget",
        "_attempts", "_busy",
    )

    def __init__(
        self,
        retries: int,
        busy_retries: int,
        delay: float,
        budget: RetryBudget,
        deadline: Optional[Deadline],
    ) -> None:
        self.deadline = deadline
        self._retries = retries
        self._busy_retries = busy_retries
        self._delay = delay
        self._budget = budget
        self._attempts = 0
        self._busy = 0

    def renew(self) -> "RetryState":
        """A fresh state for another request of the same call: the same
        deadline and budget, the counters and backoff reset."""
        return RetryState(
            self._retries, self._busy_retries, self._delay, self._budget, self.deadline
        )

    def wire_ms(self) -> int:
        """The budget the next request frame carries (0 = no deadline);
        raises :class:`DeadlineExceededError` once the deadline is spent."""
        if self.deadline is None:
            return 0
        self.deadline.check()
        return self.deadline.wire_ms()

    def wait(self, timeout: float) -> float:
        """How long the next socket wait may block: ``timeout``, cut to
        what is left of the deadline."""
        if self.deadline is None:
            return timeout
        self.deadline.check()
        return min(timeout, self.deadline.remaining())

    def check_timeout(self) -> None:
        """After a socket wait timed out: raise :class:`DeadlineExceededError`
        if the deadline ran out (else the caller re-raises the timeout)."""
        if self.deadline is not None and self.deadline.expired:
            raise DeadlineExceededError(
                "request deadline exceeded waiting for the server"
            ) from None

    def on_busy(self, busy: BusyReply) -> float:
        """The sleep before re-sending a request answered ``R_BUSY``
        (:func:`hinted_backoff`); :class:`ServerBusyError` once
        ``busy_retries`` or the budget are spent."""
        if self._busy == self._busy_retries:
            raise ServerBusyError(
                f"server still busy after {self._busy_retries} retries"
            )
        if not self._budget.spend():
            raise ServerBusyError(
                "server busy and the client retry budget is exhausted"
            )
        sleep = hinted_backoff(busy.retry_after, self._delay * 2**self._busy)
        self._busy += 1
        return self._within_deadline(sleep)

    def on_connection_error(self, error: BaseException) -> float:
        """The full-jittered sleep before re-dialing after a connection
        failure; re-raises ``error`` once ``retries`` or the budget are
        spent."""
        if self._attempts == self._retries or not self._budget.spend():
            raise error
        sleep = full_jitter(self._delay * 2**self._attempts)
        self._attempts += 1
        return self._within_deadline(sleep)

    def _within_deadline(self, sleep: float) -> float:
        if self.deadline is not None and sleep >= self.deadline.remaining():
            raise DeadlineExceededError(
                "request deadline exceeded during retry backoff"
            )
        return sleep


# ----------------------------------------------------------------------
# What both drivers share
# ----------------------------------------------------------------------
class _ClientBase:
    """Configuration, validation and introspection common to both drivers."""

    def __init__(
        self,
        host: str,
        port: int,
        archive: str = "",
        timeout: float = 30.0,
        retries: int = 3,
        retry_delay: float = 0.05,
        busy_retries: int = 8,
        max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES,
        deadline_ms: int = 0,
        retry_budget: Optional[RetryBudget] = None,
    ) -> None:
        if retries < 0:
            raise ProtocolError("retries must be non-negative")
        if busy_retries < 0:
            raise ProtocolError("busy_retries must be non-negative")
        if deadline_ms < 0:
            raise ProtocolError("deadline_ms must be non-negative")
        self._host = host
        self._port = port
        self._archive = archive
        self._timeout = timeout
        self._retries = retries
        self._retry_delay = retry_delay
        self._busy_retries = busy_retries
        self._max_frame_bytes = max_frame_bytes
        self._deadline_ms = deadline_ms
        self._budget = retry_budget if retry_budget is not None else RetryBudget()
        self._closed = False
        self._doc_ids: Optional[List[int]] = None
        self._busy_seen = 0
        self._ids = itertools.count(1)
        self._open_transport()  # this client's connection state (no I/O)

    def _next_request_id(self) -> int:
        """A fresh request id (32 bits, skipping the reserved 0); ids are
        unique across all of this client's connections."""
        return next(self._ids) & 0xFFFFFFFF or 1

    def _retry(self, deadline_ms: Optional[int]) -> RetryState:
        """A call's retry state, with the per-call or default deadline."""
        if deadline_ms is None:
            deadline_ms = self._deadline_ms
        if deadline_ms < 0:
            raise ProtocolError("deadline_ms must be non-negative")
        return RetryState(
            self._retries,
            self._busy_retries,
            self._retry_delay,
            self._budget,
            Deadline.from_ms(deadline_ms),
        )

    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreClosedError(f"client for {self._host}:{self._port} is closed")

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def address(self) -> Tuple[str, int]:
        return self._host, self._port

    @property
    def archive_name(self) -> str:
        """The archive this client asks the server's router for."""
        return self._archive

    @property
    def busy_hints(self) -> int:
        """How many R_BUSY backpressure hints this client has absorbed."""
        return self._busy_seen

    @property
    def retry_budget(self) -> RetryBudget:
        """The token bucket this client's retries draw from."""
        return self._budget


# ----------------------------------------------------------------------
# Socket driver
# ----------------------------------------------------------------------
def _recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise on EOF/truncation."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError(
                f"connection closed mid-frame ({count - remaining}/{count} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_reply(sock: socket.socket, max_frame_bytes: int) -> Tuple[int, int, bytes]:
    """One reply frame as ``(opcode, request_id, payload)``, CRC-verified."""
    length = protocol.frame_length(_recv_exact(sock, 4), max_frame_bytes)
    return protocol.split_reply(_recv_exact(sock, length))


class RlzClient(_ClientBase):
    """Synchronous network client for :class:`repro.serve.RlzServer`.

    Parameters
    ----------
    host, port:
        The server address.
    archive:
        Name of the archive to talk to on a multi-archive server (the
        router); the empty default selects the server's default archive.
    timeout:
        Per-socket-operation timeout in seconds.
    retries:
        How many times one call retries a failed dial or a connection
        that died mid-request before giving up.
    retry_delay:
        Backoff seed between retries, in seconds (doubles each attempt).
    busy_retries:
        How many ``R_BUSY`` backpressure hints one request tolerates
        (each retried with backoff) before giving up.
    deadline_ms:
        Default per-request deadline in milliseconds (0 = none).  The
        remaining budget rides on every request frame and
        bounds the client's own dials, retries and socket waits; per-call
        ``deadline_ms=`` arguments override it.
    retry_budget:
        The token-bucket :class:`~repro.serve.retry.RetryBudget` every
        retry draws from.  Pass a shared instance to cap retry volume
        across many clients (the cluster does); ``None`` creates a
        private default bucket.

    Requests run on pooled connections: up to two idle ones are kept,
    and concurrent requests above that dial extra connections that are
    closed on return.
    """

    def _open_transport(self) -> None:
        self._pool: List[socket.socket] = []
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def _dial(self) -> socket.socket:
        """A handshaken socket."""
        sock = socket.create_connection((self._host, self._port), timeout=self._timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(hello_frame(self._archive))
            opcode, _, payload = _recv_reply(sock, self._max_frame_bytes)
            check_hello_reply(opcode, payload)
            return sock
        except BaseException:
            sock.close()
            raise

    def _checkout(self, retry: RetryState) -> socket.socket:
        """A pooled connection, else a fresh dial retried under ``retry``."""
        with self._pool_lock:
            if self._pool:
                return self._pool.pop()
        while True:
            try:
                return self._dial()
            except CONNECTION_ERRORS as exc:
                time.sleep(retry.on_connection_error(exc))

    def _checkin(self, conn: socket.socket) -> None:
        with self._pool_lock:
            if not self._closed and len(self._pool) < _POOL_SIZE:
                self._pool.append(conn)
                return
        conn.close()

    def _send(
        self, conn: socket.socket, opcode: int, payload: bytes, retry: RetryState
    ) -> int:
        """Send one request frame carrying the call's remaining deadline;
        returns its request id."""
        request_id = self._next_request_id()
        frame = protocol.encode_request(opcode, request_id, retry.wire_ms(), payload)
        conn.sendall(frame)
        return request_id

    def _receive(
        self, conn: socket.socket, retry: RetryState
    ) -> Tuple[int, int, bytes]:
        """One reply frame; the socket wait never outlives the deadline."""
        if retry.deadline is None:
            return _recv_reply(conn, self._max_frame_bytes)
        conn.settimeout(retry.wait(self._timeout))
        try:
            return _recv_reply(conn, self._max_frame_bytes)
        except socket.timeout:
            retry.check_timeout()
            raise
        finally:
            conn.settimeout(self._timeout)

    # ------------------------------------------------------------------
    # Request/response and pipelining
    # ------------------------------------------------------------------
    def _call(self, request: Request, deadline_ms: Optional[int] = None) -> Any:
        """One request/response exchange (a pipeline of one)."""
        return self._exchange([request], 1, deadline_ms)[0]

    def pipelined_get(
        self,
        doc_ids: Sequence[int],
        window: int = 32,
        deadline_ms: Optional[int] = None,
    ) -> List[bytes]:
        """Batch retrieval over *one* connection with requests in flight.

        Keeps up to ``window`` GET requests outstanding and correlates
        replies by request id as they arrive — out of order included — so
        the cost per document approaches server work instead of one full
        round-trip each, which is what makes a single socket competitive
        with local access.  Returns documents in
        request order (duplicates preserved); a connection that dies
        mid-pipeline is retried on a fresh one for the still-unanswered
        documents only.  Each document's ``R_BUSY`` replies are retried
        exactly as one ``get`` would retry them.
        """
        if window < 1:
            raise ProtocolError("window must be at least 1")
        requests = [get_request(doc_id) for doc_id in doc_ids]
        return self._exchange(requests, window, deadline_ms)

    def _exchange(
        self, requests: List[Request], window: int, deadline_ms: Optional[int]
    ) -> List[Any]:
        """Run ``requests`` on one connection, up to ``window`` in flight;
        the parsed results come back in request order.

        A failed connection is replaced (every opcode is idempotent) and
        only the unanswered requests are re-sent; an ``R_ERROR`` is
        raised, never retried.  Dials, retries and backoff sleeps all run
        inside the call's deadline.
        """
        self._ensure_open()
        retry = self._retry(deadline_ms)
        results: List[Any] = [_UNSET] * len(requests)
        busy: Dict[int, RetryState] = {}  # each request's own busy retries
        while True:
            to_send = deque(i for i, slot in enumerate(results) if slot is _UNSET)
            if not to_send:
                return results
            conn = self._checkout(retry)
            pending: Dict[int, int] = {}  # request id in flight -> position
            try:
                while to_send or pending:
                    while to_send and len(pending) < window:
                        index = to_send.popleft()
                        request = requests[index]
                        request_id = self._send(
                            conn, request.opcode, request.payload, retry
                        )
                        pending[request_id] = index
                    reply, reply_id, body = self._receive(conn, retry)
                    # A reply nobody asked for fails the correlation check
                    # before its expected opcode matters.
                    request = requests[pending.get(reply_id, 0)]
                    try:
                        body = check_reply(
                            reply, reply_id, body, pending, request.expect
                        )
                    except BusyReply as exc:
                        index = pending.pop(reply_id)
                        self._busy_seen += 1
                        time.sleep(busy.setdefault(index, retry.renew()).on_busy(exc))
                        to_send.append(index)
                        continue
                    except BaseException:
                        pending.pop(reply_id, None)
                        raise
                    results[pending.pop(reply_id)] = request.parse(body)
            except CONNECTION_ERRORS as exc:
                conn.close()
                time.sleep(retry.on_connection_error(exc))
                continue
            except BaseException as exc:
                # Only an archive error with nothing else in flight leaves
                # the connection reusable: after a deadline a reply may
                # still arrive, and a protocol error means the framing is off.
                if pending or isinstance(exc, (DeadlineExceededError, ProtocolError)):
                    conn.close()
                else:
                    self._checkin(conn)
                raise
            self._checkin(conn)

    # ------------------------------------------------------------------
    # ArchiveView
    # ------------------------------------------------------------------
    def get(self, doc_id: int, deadline_ms: Optional[int] = None) -> bytes:
        """One decoded document from the remote archive."""
        return self._call(get_request(doc_id), deadline_ms)

    def get_many(
        self, doc_ids: Sequence[int], deadline_ms: Optional[int] = None
    ) -> List[bytes]:
        """Batch retrieval; the reply preserves request order."""
        return self._call(get_many_request(doc_ids), deadline_ms)

    def scan(
        self,
        doc_ids: Optional[Sequence[int]] = None,
        chunk_docs: int = 0,
    ) -> Iterator[Tuple[int, bytes]]:
        """Bulk scan: stream ``(doc_id, content)`` in chunked frames.

        ``doc_ids=None`` scans the whole archive in store order; an
        explicit list scans that subset in the given order.  The server
        decodes ``chunk_docs`` documents per batched container read
        (0 = server default) and ships each batch as one frame, so a full
        export costs a handful of round trips instead of one per document.
        """
        self._ensure_open()
        requested = list(doc_ids) if doc_ids is not None else None
        payload = protocol.pack_scan(chunk_docs, requested)
        retry = self._retry(0)
        while True:
            conn = self._checkout(retry)
            clean = started = False
            try:
                request_id = self._send(conn, Opcode.SCAN, payload, retry)
                while True:
                    reply, reply_id, body = self._receive(conn, retry)
                    # A stream is R_CHUNK frames closed by one R_END.
                    end = reply == Opcode.R_END
                    expect = Opcode.R_END if end else Opcode.R_CHUNK
                    body = check_reply(reply, reply_id, body, (request_id,), expect)
                    if end:
                        clean = True
                        return
                    started = True
                    yield from protocol.unpack_chunk(body)
            except BusyReply as exc:
                if started:
                    raise
                clean = True  # R_BUSY answered the whole request
                self._busy_seen += 1
                time.sleep(retry.on_busy(exc))
            except WrongShardError:
                # A rebalance shed part of the scan mid-stream.
                # R_WRONG_SHARD is the stream's terminal frame, so the
                # connection's framing is intact and poolable.
                clean = True
                raise
            finally:
                # An abandoned or failed stream leaves frames in flight:
                # the connection cannot be pooled.
                if clean:
                    self._checkin(conn)
                else:
                    conn.close()

    def iter_documents(self) -> Iterator[Tuple[int, bytes]]:
        """Stream every document in store order over one chunked SCAN."""
        yield from self.scan()

    def doc_ids(self) -> List[int]:
        """All stored document IDs (cached: archives are immutable)."""
        if self._doc_ids is None:
            self._doc_ids = self._call(DOC_IDS)
        return list(self._doc_ids)

    def __len__(self) -> int:
        return len(self.doc_ids())

    def stats(self) -> Dict[str, float]:
        """The server's stats snapshot (archive + cache + server counters)."""
        return self._call(STATS)

    def health(self) -> Dict[str, Dict[str, float]]:
        """Per-archive readiness/load from the server's HEALTH opcode.

        Served without queueing at the inflight gate, so it answers even
        while the server is saturated.
        """
        return self._call(HEALTH)

    def ping(self) -> float:
        """Round-trip time of an empty request, in seconds."""
        start = time.perf_counter()
        self._call(PING)
        return time.perf_counter() - start

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(
        self,
        query: str,
        top_k: int = 10,
        snippet_chars: int = 0,
        global_stats: Optional[Tuple[int, int, Dict[str, int]]] = None,
        deadline_ms: Optional[int] = None,
    ) -> List[protocol.SearchHit]:
        """BM25 top-k over the server's persistent posting lists.

        ``snippet_chars > 0`` asks the server to attach a query-biased
        snippet to every hit, materialized through the store's windowed
        partial-decode path (never a whole-document decode).  The cluster
        layer passes ``global_stats`` — ``(num_documents,
        total_doc_length, {term: df})`` summed across every shard — so
        each shard ranks with exact global idf; direct callers leave it
        ``None`` and get shard-local statistics.
        """
        request = search_request(query, top_k, snippet_chars, global_stats)
        return self._call(request, deadline_ms)

    def search_stats(
        self, query: str, deadline_ms: Optional[int] = None
    ) -> Tuple[int, int, Dict[str, int]]:
        """This shard's corpus statistics for ``query``'s terms.

        Returns ``(num_documents, total_doc_length, {term: df})`` — the
        stats leg of the two-phase sharded search: summing these across
        shards yields the exact global idf inputs.
        """
        return self._call(search_stats_request(query), deadline_ms)

    # ------------------------------------------------------------------
    # Partitioned fleets
    # ------------------------------------------------------------------
    def shard_map(self) -> Tuple[int, List[str], int]:
        """The server's current shard map: ``(epoch, labels, virtual_nodes)``.

        Served without queueing at the inflight gate (like ``health()``),
        so map refreshes work even against a saturated server.  An
        unpartitioned archive answers epoch 0 with an empty label list.
        """
        return self._call(SHARD_MAP)

    def ingest(
        self,
        items: Sequence[Tuple[int, bytes]],
        deadline_ms: Optional[int] = None,
    ) -> List[int]:
        """Stage documents on a shard ahead of an epoch install.

        The rebalance driver streams batches of ``(doc_id, content)``
        through this; the reply lists *every* staged doc id, so an empty
        ``items`` doubles as the resume probe after a crashed handoff.
        Staging is idempotent — re-sending an acked document overwrites
        it with identical bytes.
        """
        return self._call(ingest_request(items), deadline_ms)

    def install_shard_map(
        self, epoch: int, labels: Sequence[str], virtual_nodes: int
    ) -> Tuple[int, List[str], int]:
        """Commit a new shard map on the server (rebalance cutover).

        The server rewrites its container to exactly the doc ids the new
        map assigns it (staged documents in, shed documents out) and then
        starts answering for the new epoch.  Installing an epoch at or
        below the server's current one is an idempotent no-op; the reply
        is always the map the server now serves.
        """
        return self._call(install_map_request(epoch, labels, virtual_nodes))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every pooled connection (idempotent)."""
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, []
        for conn in pool:
            conn.close()

    def __enter__(self) -> "RlzClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# asyncio driver
# ----------------------------------------------------------------------
async def _recv_reply_async(
    reader: asyncio.StreamReader, max_frame_bytes: int
) -> Tuple[int, int, bytes]:
    """The asyncio twin of :func:`_recv_reply`."""
    length = protocol.frame_length(await reader.readexactly(4), max_frame_bytes)
    return protocol.split_reply(await reader.readexactly(length))


class _AsyncConnection:
    """One handshaken asyncio connection, multiplexed.

    A background reader resolves every tagged reply to the future
    registered for its request id, so any number of coroutines share this
    one transport.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.futures: Dict[int, "asyncio.Future[Tuple[int, int, bytes]]"] = {}
        self.reader_task: Optional[asyncio.Task] = None
        self.dead = False

    def kill(self, exc: Optional[BaseException] = None) -> None:
        """Mark dead, fail every waiter, close the transport."""
        if self.dead:
            return
        self.dead = True
        error = exc or ConnectionError("connection lost")
        for future in self.futures.values():
            if not future.done():
                future.set_exception(error)
        self.futures.clear()
        # Always called on the loop: by a request, close() or the reader.
        reader = self.reader_task
        if reader is not None and reader is not asyncio.current_task():
            reader.cancel()
        self.writer.close()


class AsyncRlzClient(_ClientBase):
    """Asyncio client: the coroutine mirror of :class:`RlzClient`.

    Matches :class:`repro.api.AsyncRlzArchive`'s surface (``await get`` /
    ``get_many`` / ``gather``, plus ``stats``/``ping``/``doc_ids``), so an
    async serving stack can swap a local front for a remote one.

    Every concurrent coroutine multiplexes over **one** connection:
    requests are tagged with ids, a background reader dispatches the
    (possibly out-of-order) replies, and ``R_BUSY`` hints are retried with
    backoff.  A dead connection is re-dialed by the next request.
    """

    def _open_transport(self) -> None:
        self._mux: Optional[_AsyncConnection] = None
        # Created lazily inside a coroutine: asyncio primitives must bind
        # the running loop (pre-3.10 they grab get_event_loop() eagerly,
        # which breaks clients constructed outside asyncio.run()).
        self._mux_guard: Optional[asyncio.Lock] = None

    @property
    def _mux_lock(self) -> asyncio.Lock:
        if self._mux_guard is None:
            self._mux_guard = asyncio.Lock()
        return self._mux_guard

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    async def _dial(self) -> _AsyncConnection:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self._host, self._port), self._timeout
        )
        try:
            writer.write(hello_frame(self._archive))
            await writer.drain()
            try:
                opcode, _, payload = await asyncio.wait_for(
                    _recv_reply_async(reader, self._max_frame_bytes), self._timeout
                )
            except asyncio.IncompleteReadError as exc:
                raise ConnectionError(f"connection closed mid-frame: {exc}") from exc
            check_hello_reply(opcode, payload)
            return _AsyncConnection(reader, writer)
        except BaseException:
            writer.close()
            raise

    async def _mux_connection(self) -> _AsyncConnection:
        """The shared multiplexed connection (dial or revive as needed)."""
        async with self._mux_lock:
            self._ensure_open()
            if self._mux is None or self._mux.dead:
                conn = await self._dial()
                conn.reader_task = asyncio.ensure_future(self._mux_reader(conn))
                self._mux = conn
            return self._mux

    async def _mux_reader(self, conn: _AsyncConnection) -> None:
        """Dispatch tagged replies to their futures until the peer goes."""
        try:
            while True:
                reply = await _recv_reply_async(conn.reader, self._max_frame_bytes)
                if reply[1] == 0:
                    # The reserved id: a connection-level complaint that
                    # every waiter's classifier re-raises.
                    for future in conn.futures.values():
                        if not future.done():
                            future.set_result(reply)
                    conn.kill()
                    return
                future = conn.futures.pop(reply[1], None)
                if future is not None and not future.done():
                    future.set_result(reply)
        except ProtocolError as exc:
            conn.kill(exc)
        except (ConnectionError, asyncio.IncompleteReadError, OSError) as exc:
            conn.kill(ConnectionError(f"connection lost: {exc}"))
        except Exception as exc:  # pragma: no cover - defensive
            conn.kill(ConnectionError(f"reader failed: {exc}"))

    # ------------------------------------------------------------------
    # Request/response
    # ------------------------------------------------------------------
    async def _call(self, request: Request, deadline_ms: Optional[int] = None) -> Any:
        """One tagged exchange over the shared connection, retried under
        the call's retry state exactly as :meth:`RlzClient._call` is."""
        self._ensure_open()
        retry = self._retry(deadline_ms)
        while True:
            conn = None
            try:
                conn = await self._mux_connection()
                request_id = self._next_request_id()
                future = asyncio.get_running_loop().create_future()
                conn.futures[request_id] = future
                try:
                    conn.writer.write(
                        protocol.encode_request(
                            request.opcode, request_id, retry.wire_ms(), request.payload
                        )
                    )
                    await conn.writer.drain()
                    reply, reply_id, body = await asyncio.wait_for(
                        future, retry.wait(self._timeout)
                    )
                except asyncio.TimeoutError:
                    retry.check_timeout()
                    raise
                finally:
                    conn.futures.pop(request_id, None)
                body = check_reply(reply, reply_id, body, (request_id,), request.expect)
            except BusyReply as busy:
                self._busy_seen += 1
                await asyncio.sleep(retry.on_busy(busy))
                continue
            except CONNECTION_ERRORS as exc:
                if conn is not None:
                    conn.kill()
                await asyncio.sleep(retry.on_connection_error(exc))
                continue
            return request.parse(body)

    # ------------------------------------------------------------------
    # AsyncArchiveView
    # ------------------------------------------------------------------
    async def get(self, doc_id: int, deadline_ms: Optional[int] = None) -> bytes:
        return await self._call(get_request(doc_id), deadline_ms)

    async def get_many(
        self, doc_ids: Sequence[int], deadline_ms: Optional[int] = None
    ) -> List[bytes]:
        return await self._call(get_many_request(doc_ids), deadline_ms)

    async def gather(self, doc_ids: Sequence[int]) -> List[bytes]:
        """Fan per-document requests out concurrently, every one
        multiplexed over the shared connection."""
        return list(await asyncio.gather(*(self.get(doc_id) for doc_id in doc_ids)))

    async def doc_ids(self) -> List[int]:
        if self._doc_ids is None:
            self._doc_ids = await self._call(DOC_IDS)
        return list(self._doc_ids)

    async def stats(self) -> Dict[str, float]:
        return await self._call(STATS)

    async def health(self) -> Dict[str, Dict[str, float]]:
        """Per-archive readiness/load from the server's HEALTH opcode."""
        return await self._call(HEALTH)

    async def ping(self) -> float:
        start = time.perf_counter()
        await self._call(PING)
        return time.perf_counter() - start

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    async def search(
        self,
        query: str,
        top_k: int = 10,
        snippet_chars: int = 0,
        global_stats: Optional[Tuple[int, int, Dict[str, int]]] = None,
        deadline_ms: Optional[int] = None,
    ) -> List[protocol.SearchHit]:
        """BM25 top-k over the server's index; see :meth:`RlzClient.search`."""
        request = search_request(query, top_k, snippet_chars, global_stats)
        return await self._call(request, deadline_ms)

    async def search_stats(
        self, query: str, deadline_ms: Optional[int] = None
    ) -> Tuple[int, int, Dict[str, int]]:
        """This shard's per-term corpus stats; see :meth:`RlzClient.search_stats`."""
        return await self._call(search_stats_request(query), deadline_ms)

    # ------------------------------------------------------------------
    # Partitioned fleets
    # ------------------------------------------------------------------
    async def shard_map(self) -> Tuple[int, List[str], int]:
        """The server's shard map ``(epoch, labels, virtual_nodes)``."""
        return await self._call(SHARD_MAP)

    async def ingest(
        self,
        items: Sequence[Tuple[int, bytes]],
        deadline_ms: Optional[int] = None,
    ) -> List[int]:
        """Stage documents for a rebalance; see :meth:`RlzClient.ingest`."""
        return await self._call(ingest_request(items), deadline_ms)

    async def install_shard_map(
        self, epoch: int, labels: Sequence[str], virtual_nodes: int
    ) -> Tuple[int, List[str], int]:
        """Commit a new shard map; see :meth:`RlzClient.install_shard_map`."""
        return await self._call(install_map_request(epoch, labels, virtual_nodes))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def close(self) -> None:
        async with self._mux_lock:
            self._closed = True
            mux, self._mux = self._mux, None
        if mux is not None:
            mux.kill(StoreClosedError("client closed"))
            try:
                await mux.writer.wait_closed()
            except OSError:
                pass

    async def __aenter__(self) -> "AsyncRlzClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
