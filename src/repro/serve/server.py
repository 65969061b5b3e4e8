"""The asyncio :class:`RlzServer`: archives behind a socket.

The server separates **connection handling** (this module) from **archive
dispatch** (:class:`repro.serve.router.RlzRouter`): every server owns one
router, the router hosts any number of named archives (each a lazily
opened :class:`repro.api.AsyncRlzArchive`), and a connection's HELLO picks
the archive it talks to.

* every connection handshakes (magic + protocol version + archive name),
  then issues request frames and reads responses; connections are
  independent and a slow client never blocks another (each connection
  runs its own task);
* connections are *pipelined*: every request frame carries a u32 request
  id, the server runs each request as its own task and writes replies as
  they finish — out of order when that is faster — tagged with the
  originating id.  ``max_pipeline`` bounds how many requests one
  connection may have in flight before the server stops reading its
  frames (natural TCP backpressure);
* a per-archive **backpressure gate** bounds the number of requests being
  served at once across *all* connections (``max_inflight``); excess
  requests wait in order at the gate, and once the queue is a full gate
  deep, requests are shed with an ``R_BUSY`` hint instead of queueing.
  The R_BUSY payload carries the queue depth and a retry-after estimate
  from the archive's service-time EWMA, so shed clients back off
  proportionally;
* request frames carry a millisecond **deadline**; a request whose
  deadline expired while it queued is answered with ``R_TIMEOUT`` and
  never touches the archive — decoding a document nobody is waiting for
  only deepens a brownout.  ``HEALTH`` requests bypass the gate entirely
  so load can be observed *during* saturation;
* archive failures travel back as structured error frames carrying the
  concrete :mod:`repro.errors` class, and the connection keeps serving;
  protocol violations (bad magic, oversized or truncated frames,
  duplicate request ids) close the connection after an error frame,
  because its framing can no longer be trusted;
* **graceful shutdown**: :meth:`close` stops accepting, gives in-flight
  requests ``drain_seconds`` to finish, cancels stragglers, and closes
  the router (and with it every owned archive and cache tier).

:class:`BackgroundServer` runs the whole thing on a dedicated event-loop
thread — the handle tests, benchmarks and examples use to serve and keep
interacting from synchronous code.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Set, Union

from ..api.async_front import AsyncRlzArchive
from ..api.config import ArchiveConfig, ServeSpec
from ..errors import ProtocolError, ReproError, SearchError, StorageError
from ..search.serving import GlobalStats
from . import protocol
from .protocol import Opcode
from .router import ArchiveEntry, RlzRouter

__all__ = ["BackgroundServer", "ConnectionStats", "RlzServer"]

#: Documents per R_CHUNK frame when a SCAN request does not say.
DEFAULT_SCAN_CHUNK = 64


class _WrongShard(Exception):
    """Internal: a fetch crossed onto an arc this shard no longer owns.

    Raised mid-dispatch (e.g. a concurrent epoch install shed the doc
    between the ownership check and the store read) and translated into an
    ``R_WRONG_SHARD`` reply — never propagated to the protocol layer.
    """

    def __init__(self, doc_id: int) -> None:
        super().__init__(f"doc {doc_id} is not owned by this shard")
        self.doc_id = doc_id


@dataclass
class ConnectionStats:
    """What one client connection has cost so far."""

    peer: str
    archive: str = ""
    requests: int = 0
    errors: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    by_opcode: Dict[str, int] = field(default_factory=dict)

    def count(self, opcode: int) -> None:
        self.requests += 1
        name = protocol.describe_opcode(opcode)
        self.by_opcode[name] = self.by_opcode.get(name, 0) + 1


class _Connection:
    """One client connection: handshake, then the pipelined request loop."""

    def __init__(
        self,
        server: "RlzServer",
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.server = server
        self.reader = reader
        self.writer = writer
        self.stats = ConnectionStats(peer=str(writer.get_extra_info("peername")))
        self.entry: Optional[ArchiveEntry] = None
        #: Request tasks in flight on this connection.
        self.tasks: Set[asyncio.Task] = set()
        self.inflight_ids: Set[int] = set()

    # -- I/O ------------------------------------------------------------
    async def read_body(self) -> bytes:
        prefix = await self.reader.readexactly(4)
        length = protocol.frame_length(prefix, self.server.spec.max_frame_bytes)
        body = await self.reader.readexactly(length)
        self.stats.bytes_in += 4 + length
        return body

    async def write_frame(self, frame: bytes) -> None:
        self.writer.write(frame)
        self.stats.bytes_out += len(frame)
        await self.writer.drain()

    async def respond(self, opcode: int, payload: bytes, request_id: int) -> None:
        """One reply frame tagged with ``request_id``."""
        await self.write_frame(protocol.encode_reply(opcode, request_id, payload))


class RlzServer:
    """Serve one or many archives over a TCP socket.

    Parameters
    ----------
    source:
        What to serve: a pre-opened :class:`AsyncRlzArchive` (the
        single-archive path; with ``own_front=True`` the server closes it
        on shutdown) or an :class:`RlzRouter` hosting named archives.
    spec:
        The :class:`ServeSpec` carrying host/port/backpressure settings
        (defaults to ``ServeSpec()``: loopback, ephemeral port).
    """

    def __init__(
        self,
        source: Union[AsyncRlzArchive, RlzRouter],
        spec: Optional[ServeSpec] = None,
        own_front: bool = True,
    ) -> None:
        self._spec = spec or ServeSpec()
        if isinstance(source, RlzRouter):
            self._router = source
        else:
            self._router = RlzRouter.for_front(
                source,
                config=ArchiveConfig(serve=self._spec),
                owned=own_front,
            )
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[asyncio.Task] = set()
        self._busy: Set[asyncio.Task] = set()
        self._conn_objects: Dict[asyncio.Task, _Connection] = {}
        self._closing = False
        self._closed = False
        self._connections_total = 0
        self._requests = 0
        self._errors = 0
        self._busy_rejections = 0
        self._deadline_rejections = 0

    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        config: Optional[ArchiveConfig] = None,
        max_workers: Optional[int] = None,
    ) -> "RlzServer":
        """Open one archive, wrap it in an async front, and build a server
        configured by ``config.serve`` (not yet started)."""
        config = config or ArchiveConfig()
        front = AsyncRlzArchive.open(path, config, max_workers=max_workers)
        return cls(front, spec=config.serve)

    @classmethod
    def open_many(
        cls,
        archives: Mapping[str, Union[str, Path]],
        config: Optional[ArchiveConfig] = None,
        default: Optional[str] = None,
        max_workers: Optional[int] = None,
    ) -> "RlzServer":
        """A server hosting every named archive (each opened lazily on the
        first connection that asks for it)."""
        config = config or ArchiveConfig()
        router = RlzRouter(
            archives, config=config, default=default, max_workers=max_workers
        )
        return cls(router, spec=config.serve)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def front(self) -> AsyncRlzArchive:
        """The default archive's async front (single-archive compatibility
        accessor; raises until the archive has been opened)."""
        return self._router.default_front()

    @property
    def router(self) -> RlzRouter:
        """The archive router behind this server."""
        return self._router

    @property
    def spec(self) -> ServeSpec:
        """The serve configuration."""
        return self._spec

    @property
    def host(self) -> str:
        return self._spec.host

    @property
    def port(self) -> int:
        """The actual bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[1]
        return self._spec.port

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> Dict[str, float]:
        """Server counters merged with the router's per-archive stats."""
        snapshot = self._router.stats()
        snapshot["server_connections_total"] = self._connections_total
        snapshot["server_connections_active"] = len(self._connections)
        snapshot["server_requests"] = self._requests
        snapshot["server_errors"] = self._errors
        snapshot["server_busy_rejections"] = self._busy_rejections
        snapshot["server_deadline_rejections"] = self._deadline_rejections
        snapshot["server_inflight_capacity"] = self._spec.max_inflight
        return snapshot

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise ProtocolError("server already started")
        self._server = await asyncio.start_server(
            self._on_connection, host=self._spec.host, port=self._spec.port
        )

    async def serve_forever(self) -> None:
        """Block until :meth:`close` (convenience for CLI use)."""
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def close(self) -> None:
        """Graceful shutdown: drain in-flight requests, then release.

        Stops accepting, cancels *idle* connections immediately (they are
        parked waiting for a next request that will never be answered),
        waits up to ``drain_seconds`` for connections serving a request to
        finish it, cancels stragglers, and closes the router (and every
        owned front).  Idempotent.
        """
        if self._closed:
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = [task for task in self._connections if not task.done()]
        idle = [task for task in pending if task not in self._busy]
        busy = [task for task in pending if task in self._busy]
        for task in idle:
            task.cancel()
        # A busy connection task is parked reading the socket and never
        # finishes on its own: its in-flight *request tasks* are what the
        # drain window waits for.
        drain_targets = [
            request
            for task in busy
            for request in self._conn_objects[task].tasks
            if not request.done()
        ]
        if drain_targets:
            done, still_pending = await asyncio.wait(
                drain_targets, timeout=self._spec.drain_seconds
            )
            for task in still_pending:
                task.cancel()
        for task in busy:
            if not task.done():
                task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        self._closed = True
        await self._router.close()

    async def __aenter__(self) -> "RlzServer":
        if self._server is None:
            await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Run each connection as its own task and register it so close()
        # can drain (then cancel) live connections.
        handler = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._connections.add(handler)
        self._connections_total += 1
        handler.add_done_callback(self._connections.discard)
        handler.add_done_callback(self._busy.discard)
        handler.add_done_callback(lambda t: self._conn_objects.pop(t, None))

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(self, reader, writer)
        task = asyncio.current_task()
        if task is not None:
            self._conn_objects[task] = conn
        try:
            await self._handshake(conn)
            await self._run_pipelined(conn, task)
        except ReproError as exc:
            # Handshake failures (bad magic/version, unknown archive name)
            # and connection-level frame errors carry the reserved request
            # id 0: no single request can own them.
            conn.stats.errors += 1
            self._errors += 1
            try:
                await conn.respond(Opcode.R_ERROR, protocol.pack_error_for(exc), 0)
            except (ConnectionError, OSError):
                pass
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass
        finally:
            for pending in conn.tasks:
                pending.cancel()
            if conn.tasks:
                await asyncio.gather(*conn.tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handshake(self, conn: _Connection) -> None:
        try:
            opcode, _, _, payload = protocol.split_request(await conn.read_body())
        except ProtocolError as exc:
            raise ProtocolError(
                f"malformed HELLO frame (is the client speaking protocol "
                f"{protocol.PROTOCOL_VERSION}?): {exc}"
            ) from None
        if opcode != Opcode.HELLO:
            raise ProtocolError(
                f"expected HELLO, got {protocol.describe_opcode(opcode)}"
            )
        version, archive_name = protocol.unpack_hello(payload)
        if version != protocol.PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version mismatch: client speaks {version}, "
                f"server speaks {protocol.PROTOCOL_VERSION}"
            )
        conn.entry = await self._router.resolve(archive_name)
        conn.stats.archive = conn.entry.name
        await conn.respond(Opcode.R_HELLO, protocol.pack_hello_reply(), 0)

    # ------------------------------------------------------------------
    # The request loop: pipelined, out-of-order replies
    # ------------------------------------------------------------------
    async def _run_pipelined(
        self, conn: _Connection, task: Optional[asyncio.Task]
    ) -> None:
        window = asyncio.Semaphore(self._spec.max_pipeline)
        while not self._closing:
            # Stop reading frames while the pipeline window is full: the
            # kernel buffer fills and the client blocks — backpressure
            # without bookkeeping.
            await window.acquire()
            try:
                body = await conn.read_body()
            except asyncio.IncompleteReadError:
                window.release()
                return  # client hung up between requests: normal
            # The deadline is pinned to the monotonic clock *now*, at
            # frame-read time — queueing counts against it.
            opcode, request_id, deadline_ms, payload = protocol.split_request(body)
            deadline_at = (
                time.monotonic() + deadline_ms / 1000.0 if deadline_ms else None
            )
            if request_id in conn.inflight_ids:
                # A duplicate id would make two replies indistinguishable:
                # the connection's correlation state is untrustworthy.
                exc = ProtocolError(
                    f"duplicate request id {request_id} is already in flight"
                )
                self._count_error(conn)
                await conn.respond(
                    Opcode.R_ERROR, protocol.pack_error_for(exc), request_id
                )
                window.release()
                return
            conn.stats.count(opcode)
            self._requests += 1
            conn.entry.requests += 1
            conn.inflight_ids.add(request_id)
            if task is not None:
                self._busy.add(task)
            request = asyncio.ensure_future(
                self._run_request(conn, opcode, request_id, payload, deadline_at)
            )
            conn.tasks.add(request)

            def _done(done_task: asyncio.Task, request_id=request_id) -> None:
                conn.tasks.discard(done_task)
                conn.inflight_ids.discard(request_id)
                window.release()
                if not conn.tasks and task is not None:
                    self._busy.discard(task)

            request.add_done_callback(_done)
        # Drain politely on server shutdown.
        if conn.tasks:
            await asyncio.gather(*conn.tasks, return_exceptions=True)

    async def _run_request(
        self,
        conn: _Connection,
        opcode: int,
        request_id: int,
        payload: bytes,
        deadline_at: Optional[float] = None,
    ) -> None:
        """One pipelined request: deadline check, gate, dispatch, reply."""
        entry = conn.entry
        try:
            # HEALTH and SHARD_MAP are pure bookkeeping and must stay
            # answerable while the gate is saturated — no queueing.
            if opcode == Opcode.HEALTH:
                await conn.respond(
                    Opcode.R_HEALTH,
                    protocol.pack_health(self._router.health()),
                    request_id,
                )
                return
            if opcode == Opcode.SHARD_MAP:
                await self._answer_shard_map(conn, request_id)
                return
            if deadline_at is not None and time.monotonic() >= deadline_at:
                await self._reject_expired(conn, entry, request_id)
                return
            # Shed load once the gate queue is itself a full gate deep: a
            # client knows R_BUSY means "retry in a moment, elsewhere
            # if you have a replica".  The payload tells it *when*: queue
            # depth plus a retry-after estimate from the service EWMA.
            if entry.gate.locked() and entry.waiting >= entry.max_inflight:
                entry.busy_rejections += 1
                self._busy_rejections += 1
                await conn.respond(
                    Opcode.R_BUSY,
                    protocol.pack_busy(entry.retry_after_ms(), entry.waiting),
                    request_id,
                )
                return
            entry.waiting += 1
            try:
                await entry.gate.acquire()
            finally:
                entry.waiting -= 1
            try:
                # Re-check after the queue wait: a request whose deadline
                # expired at the gate is dead — decoding it would only
                # steal a slot from a request someone still wants.
                if deadline_at is not None and time.monotonic() >= deadline_at:
                    await self._reject_expired(conn, entry, request_id)
                    return
                entry.active += 1
                started = time.monotonic()
                try:
                    await self._dispatch(conn, opcode, payload, request_id)
                finally:
                    entry.active -= 1
                    entry.observe(time.monotonic() - started)
            finally:
                entry.gate.release()
        except asyncio.CancelledError:
            raise
        except ProtocolError as exc:
            self._count_error(conn)
            try:
                await conn.respond(
                    Opcode.R_ERROR, protocol.pack_error_for(exc), request_id
                )
            except (ConnectionError, OSError):
                pass
            # The peer sent something structurally wrong: close the
            # transport, which unblocks the read loop and tears the
            # connection down.
            conn.writer.close()
        except ReproError as exc:
            self._count_error(conn)
            await conn.respond(Opcode.R_ERROR, protocol.pack_error_for(exc), request_id)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass
        except Exception as exc:  # server bug: report, go on
            self._count_error(conn)
            await conn.respond(Opcode.R_ERROR, protocol.pack_error_for(exc), request_id)

    async def _reject_expired(
        self, conn: _Connection, entry: ArchiveEntry, request_id: int
    ) -> None:
        """Answer R_TIMEOUT for a request whose wire deadline has passed."""
        entry.deadline_rejections += 1
        self._deadline_rejections += 1
        await conn.respond(
            Opcode.R_TIMEOUT,
            b"request deadline expired before the server could serve it",
            request_id,
        )

    def _count_error(self, conn: _Connection) -> None:
        conn.stats.errors += 1
        self._errors += 1
        if conn.entry is not None:
            conn.entry.errors += 1

    # ------------------------------------------------------------------
    # Partitioned serving helpers
    # ------------------------------------------------------------------
    async def _answer_shard_map(self, conn: _Connection, request_id: int) -> None:
        """R_SHARD_MAP with the archive's current placement (pre-gate)."""
        epoch, labels, virtual_nodes = conn.entry.shard_map_reply()
        await conn.respond(
            Opcode.R_SHARD_MAP,
            protocol.pack_shard_map(epoch, labels, virtual_nodes),
            request_id,
        )

    async def _refuse_wrong_shard(
        self, conn: _Connection, doc_id: int, request_id: int
    ) -> None:
        """R_WRONG_SHARD carrying the epoch this shard currently serves."""
        entry = conn.entry
        entry.wrong_shard_rejections += 1
        epoch = entry.partition.epoch if entry.partition is not None else 0
        await conn.respond(
            Opcode.R_WRONG_SHARD,
            protocol.pack_wrong_shard(epoch, doc_id),
            request_id,
        )

    def _first_unowned(self, entry: ArchiveEntry, doc_ids) -> Optional[int]:
        """The first doc id this shard does not own, or ``None``."""
        if entry.partition is None:
            return None
        for doc_id in doc_ids:
            if not entry.owns(doc_id):
                return doc_id
        return None

    async def _get_document(
        self, conn: _Connection, front: AsyncRlzArchive, doc_id: int
    ) -> bytes:
        """One owned document: overlay first, then the store.

        A store miss is re-judged against the *current* partition state —
        a concurrent epoch install may have shed the doc (refuse it as
        wrong-shard, not as a storage error) or committed it into a new
        front (retry there).
        """
        document = conn.entry.overlay.get(doc_id)
        if document is not None:
            return document
        try:
            return await front.get(doc_id)
        except StorageError:
            entry = conn.entry
            if not entry.owns(doc_id):
                raise _WrongShard(doc_id) from None
            if entry.front is not None and entry.front is not front:
                return await entry.front.get(doc_id)
            raise

    async def _get_batch(
        self, conn: _Connection, front: AsyncRlzArchive, doc_ids
    ) -> list:
        """A batch of owned documents, mixing overlay and store reads."""
        entry = conn.entry
        overlay_hits = {
            doc_id: entry.overlay[doc_id]
            for doc_id in doc_ids
            if doc_id in entry.overlay
        }
        misses = [doc_id for doc_id in doc_ids if doc_id not in overlay_hits]
        fetched: Dict[int, bytes] = {}
        if misses:
            try:
                documents = await front.get_many(misses)
            except StorageError:
                entry = conn.entry
                unowned = self._first_unowned(entry, misses)
                if unowned is not None:
                    raise _WrongShard(unowned) from None
                if entry.front is not None and entry.front is not front:
                    documents = await entry.front.get_many(misses)
                else:
                    raise
            fetched = dict(zip(misses, documents))
        return [
            overlay_hits[doc_id] if doc_id in overlay_hits else fetched[doc_id]
            for doc_id in doc_ids
        ]

    def _served_ids(self, entry: ArchiveEntry) -> list:
        """Every doc id this entry can serve right now, in store order.

        Store docs plus staged overlay docs; on a partitioned entry the
        order follows the manifest's global ``doc_order`` so a handoff
        does not reorder streams.
        """
        front_ids = entry.front.archive.doc_ids()
        extra = [doc_id for doc_id in entry.overlay if doc_id not in set(front_ids)]
        if not extra:
            return front_ids
        served = set(front_ids) | set(extra)
        if entry.partition is not None:
            return [
                doc_id
                for doc_id in entry.partition.manifest.doc_order
                if doc_id in served
            ]
        return front_ids + sorted(extra)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch(
        self,
        conn: _Connection,
        opcode: int,
        payload: bytes,
        request_id: int,
    ) -> None:
        try:
            await self._dispatch_inner(conn, opcode, payload, request_id)
        except _WrongShard as exc:
            await self._refuse_wrong_shard(conn, exc.doc_id, request_id)

    async def _dispatch_inner(
        self,
        conn: _Connection,
        opcode: int,
        payload: bytes,
        request_id: int,
    ) -> None:
        entry = conn.entry
        front = entry.front
        if opcode == Opcode.PING:
            await conn.respond(Opcode.R_PONG, payload, request_id)
        elif opcode == Opcode.GET:
            doc_id = protocol.unpack_doc_id(payload)
            if not entry.owns(doc_id):
                raise _WrongShard(doc_id)
            document = await self._get_document(conn, front, doc_id)
            await conn.respond(Opcode.R_DOC, document, request_id)
        elif opcode == Opcode.GET_MANY:
            doc_ids = protocol.unpack_doc_ids(payload)
            unowned = self._first_unowned(entry, doc_ids)
            if unowned is not None:
                raise _WrongShard(unowned)
            documents = await self._get_batch(conn, front, doc_ids)
            await conn.respond(
                Opcode.R_DOCS, protocol.pack_documents(documents), request_id
            )
        elif opcode == Opcode.SCAN:
            await self._dispatch_scan(conn, payload, request_id)
        elif opcode == Opcode.STATS:
            await conn.respond(
                Opcode.R_STATS, protocol.pack_stats(self.stats()), request_id
            )
        elif opcode == Opcode.DOC_IDS:
            if entry.partition is not None:
                doc_ids = list(entry.partition.manifest.doc_order)
            else:
                doc_ids = front.archive.doc_ids()
            await conn.respond(
                Opcode.R_DOC_IDS,
                protocol.pack_doc_ids(doc_ids),
                request_id,
            )
        elif opcode == Opcode.SHARD_MAP:
            # Normally answered pre-gate; kept here so a direct dispatch
            # (or a future loop refactor) cannot drop the opcode.
            await self._answer_shard_map(conn, request_id)
        elif opcode == Opcode.INGEST:
            items = protocol.unpack_chunk(payload)
            staged = await self._router.ingest(entry, items)
            await conn.respond(
                Opcode.R_DOC_IDS, protocol.pack_doc_ids(staged), request_id
            )
        elif opcode == Opcode.SEARCH:
            await self._dispatch_search(conn, payload, request_id)
        elif opcode == Opcode.INSTALL_MAP:
            epoch, labels, virtual_nodes = protocol.unpack_shard_map(payload)
            epoch, labels, virtual_nodes = await self._router.install_map(
                entry, epoch, labels, virtual_nodes
            )
            await conn.respond(
                Opcode.R_SHARD_MAP,
                protocol.pack_shard_map(epoch, labels, virtual_nodes),
                request_id,
            )
        else:
            raise ProtocolError(
                f"unknown request opcode {protocol.describe_opcode(opcode)}"
            )

    async def _dispatch_search(
        self, conn: _Connection, payload: bytes, request_id: int
    ) -> None:
        """SEARCH: shard-local BM25 top-k over the persistent posting lists.

        Two request shapes share the opcode (see :mod:`repro.serve.protocol`):
        a *stats* leg (``stats_only``) returning this shard's corpus counts
        so a fan-out client can assemble exact global idf, and a *scoring*
        leg ranking with either shard-local statistics or the client's
        exchanged global ones.  When the request asks for snippets, each
        hit's window is materialized through the store's partial-decode
        path (:meth:`RlzStore.get_window`) — never a whole-document decode.

        Scoring, every snippet window and the reply encoding run in one
        executor submission, against a store captured before it, so the
        whole reply comes from one store and pays one thread hand-off.
        """
        entry = conn.entry
        index = entry.search_index
        query, top_k, snippet_chars, stats_only, global_stats = protocol.unpack_search(
            payload
        )
        if index is None:
            raise SearchError(
                f"archive {entry.name!r} has no search index; build it with "
                "SearchSpec(enabled=True) (repro partition --search-index)"
            )
        entry.search_requests += 1
        loop = asyncio.get_running_loop()
        if stats_only:
            num_docs, total_length, frequencies = await loop.run_in_executor(
                None, index.term_stats, query
            )
            await conn.respond(
                Opcode.R_SEARCH,
                protocol.pack_search_stats(num_docs, total_length, frequencies),
                request_id,
            )
            return
        spec = entry.config.search
        stats_arg = (
            GlobalStats(
                num_documents=global_stats[0],
                total_doc_length=global_stats[1],
                document_frequencies=global_stats[2],
            )
            if global_stats is not None
            else None
        )

        store = entry.front.archive.store

        def _serve() -> bytes:
            hits = index.search(
                query, top_k=top_k, k1=spec.k1, b=spec.b, global_stats=stats_arg
            )
            wire_hits = []
            for hit in hits:
                snippet = b""
                snippet_start = 0
                if snippet_chars > 0:
                    # Center the window on the first occurrence of a matched
                    # query term; decode only the covering factors.
                    snippet_start = max(0, hit.hit_offset - snippet_chars // 2)
                    snippet = store.get_window(hit.doc_id, snippet_start, snippet_chars)
                wire_hits.append(
                    protocol.SearchHit(
                        doc_id=hit.doc_id,
                        score=hit.score,
                        snippet=snippet,
                        snippet_start=snippet_start,
                    )
                )
            return protocol.pack_search_results(wire_hits)

        reply = await loop.run_in_executor(None, _serve)
        await conn.respond(Opcode.R_SEARCH, reply, request_id)

    async def _dispatch_scan(
        self, conn: _Connection, payload: bytes, request_id: int
    ) -> None:
        """Bulk scan: batched container reads, many documents per frame.

        SCAN decodes ``chunk_docs`` documents per batched ``get_many`` — one vectorized
        pass over the container per chunk — and ships each batch as one
        R_CHUNK frame.  An explicit doc-id list scans just that subset, in
        the requested order (the cluster client uses this to scan only the
        documents a shard owns).

        Ownership is re-checked per chunk on a partitioned archive: a
        rebalance that sheds part of the requested set mid-stream turns
        into an ``R_WRONG_SHARD`` (the client re-plans from the moved
        document) instead of stale bytes.
        """
        entry = conn.entry
        front = entry.front
        chunk_docs, doc_ids = protocol.unpack_scan(payload)
        if not doc_ids:
            doc_ids = self._served_ids(entry)
        chunk = chunk_docs or DEFAULT_SCAN_CHUNK
        for start in range(0, len(doc_ids), chunk):
            batch = doc_ids[start : start + chunk]
            unowned = self._first_unowned(entry, batch)
            if unowned is not None:
                raise _WrongShard(unowned)
            documents = await self._get_batch(conn, front, batch)
            await conn.respond(
                Opcode.R_CHUNK,
                protocol.pack_chunk(list(zip(batch, documents))),
                request_id,
            )
        await conn.respond(Opcode.R_END, b"", request_id)


class BackgroundServer:
    """Run an :class:`RlzServer` on its own event-loop thread.

    Synchronous code (tests, benchmarks, the quickstart example) uses this
    to put one archive — or a named map of archives — on a socket without
    restructuring around asyncio::

        with BackgroundServer(path, config) as server:
            client = RlzClient(*server.address)
            ...

        with BackgroundServer({"gov": gov_path, "wiki": wiki_path}) as server:
            client = RlzClient(*server.address, archive="wiki")
            ...

    ``stop()`` (or leaving the ``with`` block) performs the server's
    graceful shutdown and returns its final stats snapshot.
    """

    def __init__(
        self,
        source: Union[str, Path, Mapping[str, Union[str, Path]]],
        config: Optional[ArchiveConfig] = None,
        max_workers: Optional[int] = None,
        default: Optional[str] = None,
    ) -> None:
        self._source = source
        self._config = config or ArchiveConfig()
        self._max_workers = max_workers
        self._default = default
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[RlzServer] = None
        self._final_stats: Dict[str, float] = {}

    @property
    def address(self) -> tuple:
        """``(host, port)`` of the live server."""
        if self._server is None:
            raise ProtocolError("BackgroundServer is not running")
        return self._server.host, self._server.port

    def stats(self) -> Dict[str, float]:
        """A live stats snapshot (final snapshot after :meth:`stop`)."""
        if self._server is None or self._loop is None:
            return dict(self._final_stats)
        return asyncio.run_coroutine_threadsafe(
            self._snapshot(), self._loop
        ).result(timeout=30)

    async def _snapshot(self) -> Dict[str, float]:
        return self._server.stats()

    def start(self) -> tuple:
        """Start the loop thread and the server; returns ``(host, port)``."""
        if self._server is not None:
            raise ProtocolError("BackgroundServer already started")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="rlz-serve-loop", daemon=True
        )
        self._thread.start()

        async def boot() -> RlzServer:
            # Archive opens read container headers and dictionaries off
            # disk; keep them off the event loop so the loop stays
            # responsive from its very first request.
            loop = asyncio.get_running_loop()
            if isinstance(self._source, Mapping):
                server = await loop.run_in_executor(
                    None,
                    lambda: RlzServer.open_many(
                        self._source,
                        self._config,
                        default=self._default,
                        max_workers=self._max_workers,
                    ),
                )
            else:
                server = await loop.run_in_executor(
                    None,
                    lambda: RlzServer.open(
                        self._source, self._config, max_workers=self._max_workers
                    ),
                )
            await server.start()
            return server

        try:
            self._server = asyncio.run_coroutine_threadsafe(
                boot(), self._loop
            ).result(timeout=60)
        except Exception:
            self._teardown_loop()
            raise
        return self.address

    def stop(self) -> Dict[str, float]:
        """Gracefully shut the server down; returns the final stats."""
        if self._server is not None and self._loop is not None:
            async def shutdown() -> Dict[str, float]:
                stats = self._server.stats()
                await self._server.close()
                return stats

            try:
                self._final_stats = asyncio.run_coroutine_threadsafe(
                    shutdown(), self._loop
                ).result(timeout=60)
            finally:
                self._server = None
                self._teardown_loop()
        return dict(self._final_stats)

    def _teardown_loop(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=30)
            self._loop.close()
        self._loop = None
        self._thread = None

    def __enter__(self) -> "BackgroundServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
