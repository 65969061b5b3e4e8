"""Clients that make a remote archive look exactly like a local one.

:class:`RlzClient` is the synchronous client: it implements the same
:class:`repro.api.ArchiveView` protocol as :class:`repro.api.RlzArchive`,
so any code written against the facade — examples, benchmarks, ``repro
get`` — runs unchanged whether it holds a local archive or a socket to an
:class:`repro.serve.RlzServer`.  Error types round-trip through the wire
protocol's structured error frames: a remote miss raises the very same
:class:`~repro.errors.StorageError` a local miss does.

Both clients handshake with the one protocol version at dial time (a
peer announcing any other version is a
:class:`~repro.errors.ProtocolError`).  Every request carries a request
id, which buys:

* **pipelining** — :meth:`RlzClient.pipelined_get` keeps a window of
  requests in flight on *one* connection and correlates the replies as
  they arrive (out of order included), collapsing the per-request
  round-trip latency that makes a sequential request/response loop slow
  on a socket;
* **bulk scans** — :meth:`RlzClient.scan` streams ``R_CHUNK`` batches
  (many documents per frame, batched container decodes server-side)
  instead of one ``get`` per document; ``iter_documents`` rides it;
* **multiplexing** — :class:`AsyncRlzClient` shares one connection among
  every concurrent coroutine: a background reader resolves each tagged
  reply to the future that asked for it;
* **backpressure hints** — an ``R_BUSY`` reply (the server's
  ``max_inflight`` gate is saturated) is retried with backoff instead of
  queueing server-side, and surfaces to the cluster layer so it can
  re-route to a replica.

Every request frame also carries the call's remaining **deadline** (the
server drops work whose deadline expired while queueing and answers
``R_TIMEOUT``, which surfaces here as
:class:`~repro.errors.DeadlineExceededError`), ``R_BUSY`` payloads carry
the server's queue depth and a **retry-after hint** that replaces blind
exponential backoff, and ``health()`` exposes the per-archive load
snapshot.  All retries — dials, dead connections, busy backoff — draw
from a shared token-bucket :class:`~repro.serve.retry.RetryBudget`, so a
browned-out server sees retry traffic capped at the budget's refill rate
instead of multiplied by it.

:class:`RlzClient` keeps a small **connection pool**: requests check a
connection out, use it for one framed exchange (or one stream) and return
it; concurrent requests above the pool's high-water mark dial extra
connections that are closed instead of pooled on return.  Dialing (and
re-dialing after a server restart) retries with a delay; because every
read opcode is idempotent, a connection that dies mid-request is retried
on a fresh connection up to ``retries`` times.  Protocol violations are
never retried — the server told us something is structurally wrong.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from collections import deque
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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

_UNSET = object()


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


async def _recv_reply_async(
    reader: asyncio.StreamReader, max_frame_bytes: int
) -> Tuple[int, int, bytes]:
    """The asyncio twin of :func:`_recv_reply`."""
    length = protocol.frame_length(await reader.readexactly(4), max_frame_bytes)
    return protocol.split_reply(await reader.readexactly(length))


def _hello_frame(archive: str) -> bytes:
    """The HELLO request: request id 0, no deadline."""
    return protocol.encode_request(
        Opcode.HELLO, 0, 0, protocol.pack_hello(archive=archive)
    )


def _check_hello_reply(opcode: int, payload: bytes) -> None:
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


def _raise_wrong_shard(body: bytes) -> None:
    """Re-raise an ``R_WRONG_SHARD`` refusal as :class:`WrongShardError`.

    The payload carries the epoch the server is at, so the cluster layer
    can tell a genuinely newer map (refresh and retry) from a stale
    refusal (give up).
    """
    epoch, doc_id = protocol.unpack_wrong_shard(body)
    raise WrongShardError(
        f"document {doc_id} is not owned by this shard (map epoch {epoch})",
        epoch=epoch,
    )


class _SyncConnection:
    """One handshaken socket: transport + request-id counter."""

    __slots__ = ("sock", "_next_id")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._next_id = 1

    def next_request_id(self) -> int:
        request_id = self._next_id
        self._next_id = (self._next_id + 1) & 0xFFFFFFFF or 1
        return request_id

    def close(self) -> None:
        self.sock.close()


class RlzClient:
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
        How many times to retry dialing (and re-running an idempotent
        request on a fresh connection) before giving up.
    retry_delay:
        Sleep between retries, in seconds (doubles each attempt).
    busy_retries:
        How many ``R_BUSY`` backpressure hints one request tolerates
        (each retried with ``retry_delay`` backoff) before giving up.
    pool_size:
        How many idle connections to keep for reuse.  More may be open
        concurrently; the surplus is closed on return.
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
    """

    def __init__(
        self,
        host: str,
        port: int,
        archive: str = "",
        timeout: float = 30.0,
        retries: int = 3,
        retry_delay: float = 0.05,
        busy_retries: int = 8,
        pool_size: int = 2,
        max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES,
        deadline_ms: int = 0,
        retry_budget: Optional[RetryBudget] = None,
    ) -> None:
        if retries < 0:
            raise ProtocolError("retries must be non-negative")
        if busy_retries < 0:
            raise ProtocolError("busy_retries must be non-negative")
        if pool_size < 1:
            raise ProtocolError("pool_size must be at least 1")
        self._host = host
        self._port = port
        self._archive = archive
        self._timeout = timeout
        self._retries = retries
        self._retry_delay = retry_delay
        self._busy_retries = busy_retries
        self._pool_size = pool_size
        self._max_frame_bytes = max_frame_bytes
        if deadline_ms < 0:
            raise ProtocolError("deadline_ms must be non-negative")
        self._deadline_ms = deadline_ms
        self._budget = retry_budget if retry_budget is not None else RetryBudget()
        self._pool: List[_SyncConnection] = []
        self._pool_lock = threading.Lock()
        self._closed = False
        self._doc_ids: Optional[List[int]] = None
        self._busy_seen = 0

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def _dial_once(self) -> _SyncConnection:
        sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(_hello_frame(self._archive))
            opcode, _, payload = _recv_reply(sock, self._max_frame_bytes)
            _check_hello_reply(opcode, payload)
            return _SyncConnection(sock)
        except BaseException:
            sock.close()
            raise

    def _dial(self, deadline: Optional[Deadline] = None) -> _SyncConnection:
        # Full-jittered exponential backoff: after a server restart every
        # waiting client recomputes the same exponential delay, and
        # sleeping uniform(0, delay) spreads the reconnect herd instead of
        # slamming the fresh listener in lockstep.
        delay = self._retry_delay
        for attempt in range(self._retries + 1):
            try:
                return self._dial_once()
            except (ConnectionError, socket.timeout, OSError):
                if attempt == self._retries or not self._budget.spend():
                    raise
                if deadline is not None:
                    deadline.check("dial")
                time.sleep(full_jitter(delay))
                delay *= 2
        raise AssertionError("unreachable")  # pragma: no cover

    def _deadline_for(self, deadline_ms: Optional[int]) -> Optional[Deadline]:
        """The call's deadline: explicit per-call, else the client default."""
        if deadline_ms is None:
            deadline_ms = self._deadline_ms
        if deadline_ms < 0:
            raise ProtocolError("deadline_ms must be non-negative")
        return Deadline.from_ms(deadline_ms)

    @staticmethod
    def _send_request(
        conn: _SyncConnection,
        opcode: int,
        payload: bytes,
        deadline: Optional[Deadline],
    ) -> int:
        """Send one request frame carrying the call's remaining deadline
        budget; returns its request id."""
        request_id = conn.next_request_id()
        wire_ms = deadline.wire_ms() if deadline is not None else 0
        conn.sock.sendall(protocol.encode_request(opcode, request_id, wire_ms, payload))
        return request_id

    def _checkout(self, deadline: Optional[Deadline] = None) -> _SyncConnection:
        with self._pool_lock:
            if self._pool:
                return self._pool.pop()
        return self._dial(deadline)

    def _checkin(self, conn: _SyncConnection) -> None:
        with self._pool_lock:
            if not self._closed and len(self._pool) < self._pool_size:
                self._pool.append(conn)
                return
        conn.close()

    def _read_reply(self, conn: _SyncConnection) -> Tuple[int, int, bytes]:
        return _recv_reply(conn.sock, self._max_frame_bytes)

    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreClosedError(
                f"client for {self._host}:{self._port} is closed"
            )

    # ------------------------------------------------------------------
    # Request/response core
    # ------------------------------------------------------------------
    def _exchange(
        self,
        conn: _SyncConnection,
        opcode: int,
        payload: bytes,
        expect: int,
        deadline: Optional[Deadline] = None,
    ) -> bytes:
        """One exchange on an already-handshaken connection.

        Raises the transported error for ``R_ERROR`` replies; retries
        ``R_BUSY`` with backoff (honouring the server's retry-after hint
        and spending the retry budget).  Connection-level failures
        propagate for the caller's retry loop.
        """
        delay = self._retry_delay
        for busy in range(self._busy_retries + 1):
            if deadline is not None:
                deadline.check()
                # Never wait on the socket past the call's deadline.
                conn.sock.settimeout(min(self._timeout, deadline.remaining()))
            try:
                request_id = self._send_request(conn, opcode, payload, deadline)
                reply, reply_id, body = self._read_reply(conn)
            except socket.timeout:
                if deadline is not None and deadline.expired:
                    raise DeadlineExceededError(
                        "request deadline exceeded waiting for the server"
                    ) from None
                raise
            finally:
                if deadline is not None:
                    conn.sock.settimeout(self._timeout)
            if reply == Opcode.R_ERROR and reply_id == 0:
                # Request id 0 is reserved: a connection-level error (the
                # server could not attribute it to any single request).
                protocol.raise_error_frame(body)
            if reply_id != request_id:
                raise ProtocolError(
                    f"response correlation broke: sent request {request_id}, "
                    f"got a reply for {reply_id}"
                )
            if reply == Opcode.R_TIMEOUT:
                raise DeadlineExceededError(
                    body.decode("utf-8", "replace") or "request deadline exceeded"
                )
            if reply == Opcode.R_BUSY:
                self._busy_seen += 1
                retry_after_ms, _depth = protocol.unpack_busy(body)
                if busy == self._busy_retries:
                    raise ServerBusyError(
                        f"server still busy after {self._busy_retries} retries"
                    )
                if not self._budget.spend():
                    raise ServerBusyError(
                        "server busy and the client retry budget is exhausted"
                    )
                time.sleep(hinted_backoff(retry_after_ms / 1000.0, delay))
                delay *= 2
                continue
            return self._check_reply(reply, body, expect)
        raise AssertionError("unreachable")  # pragma: no cover

    @staticmethod
    def _check_reply(reply: int, body: bytes, expect: int) -> bytes:
        if reply == Opcode.R_ERROR:
            protocol.raise_error_frame(body)
        if reply == Opcode.R_WRONG_SHARD:
            _raise_wrong_shard(body)
        if reply != expect:
            raise ProtocolError(
                f"expected {protocol.describe_opcode(expect)}, "
                f"got {protocol.describe_opcode(reply)}"
            )
        return body

    def _request(
        self,
        opcode: int,
        payload: bytes,
        expect: int,
        deadline_ms: Optional[int] = None,
    ) -> bytes:
        """One request/response exchange, retried on connection failure.

        Every request opcode is idempotent (pure reads), so a connection
        that dies before the response completes is safely retried on a
        fresh one.  Structured error frames re-raise the server-side
        error; they are never retried.  The whole loop — dial, retries,
        backoff sleeps — runs inside the call's deadline.
        """
        self._ensure_open()
        deadline = self._deadline_for(deadline_ms)
        delay = self._retry_delay
        for attempt in range(self._retries + 1):
            conn = self._checkout(deadline)
            try:
                body = self._exchange(conn, opcode, payload, expect, deadline)
            except DeadlineExceededError:
                # A reply (the server's R_TIMEOUT or our own local check)
                # may still be in flight on the wire: never pool it.
                conn.close()
                raise
            except (ConnectionError, socket.timeout, OSError):
                conn.close()
                if attempt == self._retries or not self._budget.spend():
                    raise
                if deadline is not None:
                    deadline.check()
                time.sleep(full_jitter(delay))
                delay *= 2
                continue
            except ProtocolError:
                # The server closes the connection after a protocol
                # violation (and a violated expectation means the framing
                # is off); pooling it would poison a later request.
                conn.close()
                raise
            except BaseException:
                # Archive errors leave the framing intact: reusable.
                self._checkin(conn)
                raise
            self._checkin(conn)
            return body
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    # Pipelining
    # ------------------------------------------------------------------
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
        documents only.
        """
        if window < 1:
            raise ProtocolError("window must be at least 1")
        self._ensure_open()
        deadline = self._deadline_for(deadline_ms)
        doc_ids = list(doc_ids)
        results: List = [_UNSET] * len(doc_ids)
        if not doc_ids:
            return []
        delay = self._retry_delay
        for attempt in range(self._retries + 1):
            conn = self._checkout(deadline)
            try:
                self._pipeline_on(conn, doc_ids, results, window, deadline)
            except DeadlineExceededError:
                conn.close()
                raise
            except (ConnectionError, socket.timeout, OSError):
                conn.close()
                if attempt == self._retries or not self._budget.spend():
                    raise
                if deadline is not None:
                    deadline.check()
                time.sleep(full_jitter(delay))
                delay *= 2
                continue
            except ProtocolError:
                conn.close()
                raise
            except BaseException:
                # An archive error mid-pipeline may leave replies for the
                # other in-flight requests unread: the connection cannot
                # be pooled.
                conn.close()
                raise
            self._checkin(conn)
            return results
        raise AssertionError("unreachable")  # pragma: no cover

    def _pipeline_on(
        self,
        conn: _SyncConnection,
        doc_ids: Sequence[int],
        results: List,
        window: int,
        deadline: Optional[Deadline] = None,
    ) -> None:
        """Run the pipelined window on one connection, filling ``results``.

        On connection failure, everything already in ``results`` stays —
        the retry resends only the unanswered documents.
        """
        to_send = deque(
            index for index, slot in enumerate(results) if slot is _UNSET
        )
        pending: Dict[int, int] = {}
        busy_budget = self._busy_retries * max(1, len(to_send))
        while to_send or pending:
            if deadline is not None:
                deadline.check()
                conn.sock.settimeout(min(self._timeout, deadline.remaining()))
            while to_send and len(pending) < window:
                index = to_send.popleft()
                request_id = self._send_request(
                    conn, Opcode.GET, protocol.pack_doc_id(doc_ids[index]), deadline
                )
                pending[request_id] = index
            try:
                reply, reply_id, body = self._read_reply(conn)
            except socket.timeout:
                if deadline is not None and deadline.expired:
                    raise DeadlineExceededError(
                        "pipelined get deadline exceeded"
                    ) from None
                raise
            finally:
                if deadline is not None:
                    conn.sock.settimeout(self._timeout)
            if reply == Opcode.R_ERROR and reply_id == 0:
                protocol.raise_error_frame(body)  # connection-level error
            index = pending.pop(reply_id, None)
            if index is None:
                raise ProtocolError(
                    f"response correlation broke: got a reply for unknown "
                    f"request {reply_id}"
                )
            if reply == Opcode.R_DOC:
                results[index] = body
            elif reply == Opcode.R_TIMEOUT:
                raise DeadlineExceededError(
                    body.decode("utf-8", "replace") or "request deadline exceeded"
                )
            elif reply == Opcode.R_BUSY:
                self._busy_seen += 1
                retry_after_ms, _depth = protocol.unpack_busy(body)
                busy_budget -= 1
                if busy_budget < 0:
                    raise ServerBusyError(
                        "server still busy after the pipelined retry budget"
                    )
                if not self._budget.spend():
                    raise ServerBusyError(
                        "server busy and the client retry budget is exhausted"
                    )
                time.sleep(
                    hinted_backoff(retry_after_ms / 1000.0, self._retry_delay)
                )
                to_send.append(index)
            elif reply == Opcode.R_WRONG_SHARD:
                _raise_wrong_shard(body)
            elif reply == Opcode.R_ERROR:
                protocol.raise_error_frame(body)
            else:
                raise ProtocolError(
                    f"expected r_doc, got {protocol.describe_opcode(reply)}"
                )

    # ------------------------------------------------------------------
    # ArchiveView
    # ------------------------------------------------------------------
    def get(self, doc_id: int, deadline_ms: Optional[int] = None) -> bytes:
        """One decoded document from the remote archive."""
        return self._request(
            Opcode.GET, protocol.pack_doc_id(doc_id), Opcode.R_DOC, deadline_ms
        )

    def get_many(
        self, doc_ids: Sequence[int], deadline_ms: Optional[int] = None
    ) -> List[bytes]:
        """Batch retrieval; the reply preserves request order."""
        doc_ids = list(doc_ids)
        body = self._request(
            Opcode.GET_MANY, protocol.pack_doc_ids(doc_ids), Opcode.R_DOCS, deadline_ms
        )
        documents = protocol.unpack_documents(body)
        if len(documents) != len(doc_ids):
            raise ProtocolError(
                f"get_many asked for {len(doc_ids)} documents, got {len(documents)}"
            )
        return documents

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
        yield from self._scan_stream(self._checkout(), requested, chunk_docs)

    def _scan_stream(
        self,
        conn: _SyncConnection,
        doc_ids: Optional[List[int]],
        chunk_docs: int,
    ) -> Iterator[Tuple[int, bytes]]:
        clean = False
        started = False
        try:
            delay = self._retry_delay
            for busy in range(self._busy_retries + 1):
                request_id = self._send_request(
                    conn, Opcode.SCAN, protocol.pack_scan(chunk_docs, doc_ids), None
                )
                reply, reply_id, body = self._read_reply(conn)
                if reply == Opcode.R_ERROR and reply_id == 0:
                    protocol.raise_error_frame(body)  # connection-level error
                if reply_id != request_id:
                    raise ProtocolError(
                        f"response correlation broke: sent request {request_id}, "
                        f"got a reply for {reply_id}"
                    )
                if reply == Opcode.R_BUSY and not started:
                    self._busy_seen += 1
                    retry_after_ms, _depth = protocol.unpack_busy(body)
                    if busy == self._busy_retries:
                        raise ServerBusyError(
                            f"server still busy after {self._busy_retries} retries"
                        )
                    if not self._budget.spend():
                        raise ServerBusyError(
                            "server busy and the client retry budget is exhausted"
                        )
                    time.sleep(hinted_backoff(retry_after_ms / 1000.0, delay))
                    delay *= 2
                    continue
                while True:
                    if reply == Opcode.R_END:
                        clean = True
                        return
                    if reply == Opcode.R_WRONG_SHARD:
                        # A rebalance shed part of the scan mid-stream.
                        # R_WRONG_SHARD is the stream's terminal frame, so
                        # the connection's framing is intact and poolable.
                        clean = True
                        _raise_wrong_shard(body)
                    if reply == Opcode.R_ERROR:
                        protocol.raise_error_frame(body)
                    if reply != Opcode.R_CHUNK:
                        raise ProtocolError(
                            f"scan expected R_CHUNK/R_END, got "
                            f"{protocol.describe_opcode(reply)}"
                        )
                    started = True
                    for item in protocol.unpack_chunk(body):
                        yield item
                    reply, reply_id, body = self._read_reply(conn)
                    if reply == Opcode.R_ERROR and reply_id == 0:
                        protocol.raise_error_frame(body)  # connection-level
                    if reply_id != request_id:
                        raise ProtocolError(
                            f"response correlation broke mid-scan: expected "
                            f"{request_id}, got {reply_id}"
                        )
            raise AssertionError("unreachable")  # pragma: no cover
        finally:
            # An abandoned or failed stream leaves frames in flight: the
            # connection cannot be pooled.
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
            body = self._request(Opcode.DOC_IDS, b"", Opcode.R_DOC_IDS)
            self._doc_ids = protocol.unpack_doc_ids(body)
        return list(self._doc_ids)

    def __len__(self) -> int:
        return len(self.doc_ids())

    def stats(self) -> Dict[str, float]:
        """The server's stats snapshot (archive + cache + server counters)."""
        return protocol.unpack_stats(
            self._request(Opcode.STATS, b"", Opcode.R_STATS)
        )

    def health(self) -> Dict[str, Dict[str, float]]:
        """Per-archive readiness/load from the server's HEALTH opcode.

        Served without queueing at the inflight gate, so it answers even
        while the server is saturated.
        """
        return protocol.unpack_health(
            self._request(Opcode.HEALTH, b"", Opcode.R_HEALTH)
        )

    def ping(self) -> float:
        """Round-trip time of an empty request, in seconds."""
        start = time.perf_counter()
        self._request(Opcode.PING, b"", Opcode.R_PONG)
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
        body = self._request(
            Opcode.SEARCH,
            protocol.pack_search(
                query,
                top_k=top_k,
                snippet_chars=snippet_chars,
                global_stats=global_stats,
            ),
            Opcode.R_SEARCH,
            deadline_ms,
        )
        return protocol.unpack_search_results(body)

    def search_stats(
        self, query: str, deadline_ms: Optional[int] = None
    ) -> Tuple[int, int, Dict[str, int]]:
        """This shard's corpus statistics for ``query``'s terms.

        Returns ``(num_documents, total_doc_length, {term: df})`` — the
        stats leg of the two-phase sharded search: summing these across
        shards yields the exact global idf inputs.
        """
        body = self._request(
            Opcode.SEARCH,
            protocol.pack_search(query, stats_only=True),
            Opcode.R_SEARCH,
            deadline_ms,
        )
        return protocol.unpack_search_stats(body)

    # ------------------------------------------------------------------
    # Partitioned fleets
    # ------------------------------------------------------------------
    def shard_map(self) -> Tuple[int, List[str], int]:
        """The server's current shard map: ``(epoch, labels, virtual_nodes)``.

        Served without queueing at the inflight gate (like ``health()``),
        so map refreshes work even against a saturated server.  An
        unpartitioned archive answers epoch 0 with an empty label list.
        """
        body = self._request(Opcode.SHARD_MAP, b"", Opcode.R_SHARD_MAP)
        return protocol.unpack_shard_map(body)

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
        body = self._request(
            Opcode.INGEST,
            protocol.pack_chunk(list(items)),
            Opcode.R_DOC_IDS,
            deadline_ms,
        )
        return protocol.unpack_doc_ids(body)

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
        body = self._request(
            Opcode.INSTALL_MAP,
            protocol.pack_shard_map(epoch, list(labels), virtual_nodes),
            Opcode.R_SHARD_MAP,
        )
        return protocol.unpack_shard_map(body)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
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
        self.futures: Dict[int, "asyncio.Future[Tuple[int, bytes]]"] = {}
        self.reader_task: Optional[asyncio.Task] = None
        self.dead = False
        self._next_id = 1

    def next_request_id(self) -> int:
        request_id = self._next_id
        self._next_id = (self._next_id + 1) & 0xFFFFFFFF or 1
        return request_id

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
        if self.reader_task is not None and not self.reader_task.done():
            current = None
            try:
                current = asyncio.current_task()
            except RuntimeError:  # pragma: no cover - no running loop
                pass
            if self.reader_task is not current:
                self.reader_task.cancel()
        self.writer.close()


class AsyncRlzClient:
    """Asyncio client: the coroutine mirror of :class:`RlzClient`.

    Matches :class:`repro.api.AsyncRlzArchive`'s surface (``await get`` /
    ``get_many`` / ``gather``, plus ``stats``/``ping``/``doc_ids``), so an
    async serving stack can swap a local front for a remote one.

    Every concurrent coroutine multiplexes over **one** connection:
    requests are tagged with ids, a background reader dispatches the
    (possibly out-of-order) replies, and ``R_BUSY`` hints are retried with
    backoff.  A dead connection is re-dialed by the next request.
    """

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
        self._mux: Optional[_AsyncConnection] = None
        # Created lazily inside a coroutine: asyncio primitives must bind
        # the running loop (pre-3.10 they grab get_event_loop() eagerly,
        # which breaks clients constructed outside asyncio.run()).
        self._mux_guard: Optional[asyncio.Lock] = None
        self._closed = False
        self._doc_ids: Optional[List[int]] = None
        self._busy_seen = 0

    @property
    def _mux_lock(self) -> asyncio.Lock:
        if self._mux_guard is None:
            self._mux_guard = asyncio.Lock()
        return self._mux_guard

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    async def _dial_once(self) -> _AsyncConnection:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self._host, self._port), self._timeout
        )
        try:
            writer.write(_hello_frame(self._archive))
            await writer.drain()
            try:
                opcode, _, payload = await asyncio.wait_for(
                    _recv_reply_async(reader, self._max_frame_bytes), self._timeout
                )
            except asyncio.IncompleteReadError as exc:
                raise ConnectionError(f"connection closed mid-frame: {exc}") from exc
            _check_hello_reply(opcode, payload)
            return _AsyncConnection(reader, writer)
        except BaseException:
            writer.close()
            raise

    async def _mux_connection(self) -> _AsyncConnection:
        """The shared multiplexed connection (dial or revive as needed)."""
        async with self._mux_lock:
            if self._closed:
                raise StoreClosedError(
                    f"client for {self._host}:{self._port} is closed"
                )
            if self._mux is None or self._mux.dead:
                conn = await self._dial_once()
                conn.reader_task = asyncio.ensure_future(self._mux_reader(conn))
                self._mux = conn
            return self._mux

    async def _mux_reader(self, conn: _AsyncConnection) -> None:
        """Dispatch tagged replies to their futures until the peer goes."""
        try:
            while True:
                opcode, request_id, payload = await _recv_reply_async(
                    conn.reader, self._max_frame_bytes
                )
                if opcode == Opcode.R_ERROR and request_id == 0:
                    # Connection-level error: fail every in-flight request
                    # with the server's actual complaint.
                    try:
                        protocol.raise_error_frame(payload)
                    except BaseException as exc:
                        conn.kill(exc)
                    return
                future = conn.futures.pop(request_id, None)
                if future is not None and not future.done():
                    future.set_result((opcode, payload))
        except asyncio.CancelledError:
            raise
        except ProtocolError as exc:
            conn.kill(exc)
        except (ConnectionError, asyncio.IncompleteReadError, OSError) as exc:
            conn.kill(ConnectionError(f"connection lost: {exc}"))
        except Exception as exc:  # pragma: no cover - defensive
            conn.kill(ConnectionError(f"reader failed: {exc}"))

    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreClosedError(
                f"client for {self._host}:{self._port} is closed"
            )

    # ------------------------------------------------------------------
    # Request/response core
    # ------------------------------------------------------------------
    def _deadline_for(self, deadline_ms: Optional[int]) -> Optional[Deadline]:
        """The call's deadline: explicit per-call, else the client default."""
        if deadline_ms is None:
            deadline_ms = self._deadline_ms
        if deadline_ms < 0:
            raise ProtocolError("deadline_ms must be non-negative")
        return Deadline.from_ms(deadline_ms)

    async def _request(
        self,
        opcode: int,
        payload: bytes,
        expect: int,
        deadline_ms: Optional[int] = None,
    ) -> bytes:
        self._ensure_open()
        deadline = self._deadline_for(deadline_ms)
        delay = self._retry_delay
        for attempt in range(self._retries + 1):
            conn = None
            try:
                conn = await self._mux_connection()
                reply, body = await self._mux_exchange(conn, opcode, payload, deadline)
            except (ConnectionError, asyncio.TimeoutError, OSError):
                if conn is not None:
                    conn.kill()
                if attempt == self._retries or not self._budget.spend():
                    raise
                if deadline is not None:
                    deadline.check()
                await asyncio.sleep(full_jitter(delay))
                delay *= 2
                continue
            return self._check_reply(reply, body, expect)
        raise AssertionError("unreachable")  # pragma: no cover

    async def _mux_exchange(
        self,
        conn: _AsyncConnection,
        opcode: int,
        payload: bytes,
        deadline: Optional[Deadline] = None,
    ) -> Tuple[int, bytes]:
        """One tagged exchange over the shared connection, R_BUSY retried."""
        loop = asyncio.get_running_loop()
        delay = self._retry_delay
        for busy in range(self._busy_retries + 1):
            if deadline is not None:
                deadline.check()
            wait = self._timeout
            if deadline is not None:
                wait = min(wait, deadline.remaining())
            request_id = conn.next_request_id()
            future: "asyncio.Future[Tuple[int, bytes]]" = loop.create_future()
            conn.futures[request_id] = future
            try:
                wire_ms = deadline.wire_ms() if deadline is not None else 0
                conn.writer.write(
                    protocol.encode_request(opcode, request_id, wire_ms, payload)
                )
                await conn.writer.drain()
                reply, body = await asyncio.wait_for(future, wait)
            except asyncio.TimeoutError:
                if deadline is not None and deadline.expired:
                    raise DeadlineExceededError(
                        "request deadline exceeded waiting for the server"
                    ) from None
                raise
            finally:
                conn.futures.pop(request_id, None)
            if reply == Opcode.R_TIMEOUT:
                raise DeadlineExceededError(
                    body.decode("utf-8", "replace") or "request deadline exceeded"
                )
            if reply == Opcode.R_BUSY:
                self._busy_seen += 1
                retry_after_ms, _depth = protocol.unpack_busy(body)
                if busy == self._busy_retries:
                    raise ServerBusyError(
                        f"server still busy after {self._busy_retries} retries"
                    )
                if not self._budget.spend():
                    raise ServerBusyError(
                        "server busy and the client retry budget is exhausted"
                    )
                await asyncio.sleep(hinted_backoff(retry_after_ms / 1000.0, delay))
                delay *= 2
                continue
            return reply, body
        raise AssertionError("unreachable")  # pragma: no cover

    @staticmethod
    def _check_reply(reply: int, body: bytes, expect: int) -> bytes:
        if reply == Opcode.R_ERROR:
            protocol.raise_error_frame(body)
        if reply == Opcode.R_WRONG_SHARD:
            _raise_wrong_shard(body)
        if reply != expect:
            raise ProtocolError(
                f"expected {protocol.describe_opcode(expect)}, "
                f"got {protocol.describe_opcode(reply)}"
            )
        return body

    # ------------------------------------------------------------------
    # AsyncArchiveView
    # ------------------------------------------------------------------
    async def get(self, doc_id: int, deadline_ms: Optional[int] = None) -> bytes:
        return await self._request(
            Opcode.GET, protocol.pack_doc_id(doc_id), Opcode.R_DOC, deadline_ms
        )

    async def get_many(
        self, doc_ids: Sequence[int], deadline_ms: Optional[int] = None
    ) -> List[bytes]:
        doc_ids = list(doc_ids)
        body = await self._request(
            Opcode.GET_MANY, protocol.pack_doc_ids(doc_ids), Opcode.R_DOCS, deadline_ms
        )
        documents = protocol.unpack_documents(body)
        if len(documents) != len(doc_ids):
            raise ProtocolError(
                f"get_many asked for {len(doc_ids)} documents, got {len(documents)}"
            )
        return documents

    async def gather(self, doc_ids: Sequence[int]) -> List[bytes]:
        """Fan per-document requests out concurrently, every one
        multiplexed over the shared connection."""
        return list(await asyncio.gather(*(self.get(doc_id) for doc_id in doc_ids)))

    async def doc_ids(self) -> List[int]:
        if self._doc_ids is None:
            body = await self._request(Opcode.DOC_IDS, b"", Opcode.R_DOC_IDS)
            self._doc_ids = protocol.unpack_doc_ids(body)
        return list(self._doc_ids)

    async def stats(self) -> Dict[str, float]:
        return protocol.unpack_stats(
            await self._request(Opcode.STATS, b"", Opcode.R_STATS)
        )

    async def health(self) -> Dict[str, Dict[str, float]]:
        """Per-archive readiness/load from the server's HEALTH opcode."""
        return protocol.unpack_health(
            await self._request(Opcode.HEALTH, b"", Opcode.R_HEALTH)
        )

    async def ping(self) -> float:
        start = time.perf_counter()
        await self._request(Opcode.PING, b"", Opcode.R_PONG)
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
        body = await self._request(
            Opcode.SEARCH,
            protocol.pack_search(
                query,
                top_k=top_k,
                snippet_chars=snippet_chars,
                global_stats=global_stats,
            ),
            Opcode.R_SEARCH,
            deadline_ms,
        )
        return protocol.unpack_search_results(body)

    async def search_stats(
        self, query: str, deadline_ms: Optional[int] = None
    ) -> Tuple[int, int, Dict[str, int]]:
        """This shard's per-term corpus stats; see :meth:`RlzClient.search_stats`."""
        body = await self._request(
            Opcode.SEARCH,
            protocol.pack_search(query, stats_only=True),
            Opcode.R_SEARCH,
            deadline_ms,
        )
        return protocol.unpack_search_stats(body)

    # ------------------------------------------------------------------
    # Partitioned fleets
    # ------------------------------------------------------------------
    async def shard_map(self) -> Tuple[int, List[str], int]:
        """The server's shard map ``(epoch, labels, virtual_nodes)``."""
        body = await self._request(Opcode.SHARD_MAP, b"", Opcode.R_SHARD_MAP)
        return protocol.unpack_shard_map(body)

    async def ingest(
        self,
        items: Sequence[Tuple[int, bytes]],
        deadline_ms: Optional[int] = None,
    ) -> List[int]:
        """Stage documents for a rebalance; see :meth:`RlzClient.ingest`."""
        body = await self._request(
            Opcode.INGEST,
            protocol.pack_chunk(list(items)),
            Opcode.R_DOC_IDS,
            deadline_ms,
        )
        return protocol.unpack_doc_ids(body)

    async def install_shard_map(
        self, epoch: int, labels: Sequence[str], virtual_nodes: int
    ) -> Tuple[int, List[str], int]:
        """Commit a new shard map; see :meth:`RlzClient.install_shard_map`."""
        body = await self._request(
            Opcode.INSTALL_MAP,
            protocol.pack_shard_map(epoch, list(labels), virtual_nodes),
            Opcode.R_SHARD_MAP,
        )
        return protocol.unpack_shard_map(body)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
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

    async def close(self) -> None:
        async with self._mux_lock:
            self._closed = True
            mux, self._mux = self._mux, None
        if mux is not None:
            mux.kill(StoreClosedError("client closed"))
            try:
                await mux.writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def __aenter__(self) -> "AsyncRlzClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
