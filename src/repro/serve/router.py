"""The :class:`RlzRouter`: many named archives behind one server port.

PR 4's :class:`~repro.serve.server.RlzServer` bound exactly one archive to
one socket.  The router splits *archive dispatch* out of *connection
handling*: a server owns one router, the router owns any number of named
archives, and the HELLO handshake's archive-name field picks which one a
connection talks to (the empty name selects the default archive).

Per archive, the router keeps:

* a **lazily opened** :class:`~repro.api.AsyncRlzArchive` — registering an
  archive costs nothing until the first connection asks for it (the open
  runs on the server's executor so the event loop never blocks on disk);
* an **inflight gate** (``max_inflight`` from the archive's
  :class:`~repro.api.ServeSpec`) — one hot archive saturating its gate
  queues *its* requests without starving the others, and once the queue
  itself is a full gate deep the server answers ``R_BUSY`` instead of
  queueing further;
* request/error/busy counters, surfaced per archive in :meth:`stats`.

The router owns the fronts it opens (closing the router closes them); a
front handed in pre-opened (the single-archive compatibility path) is
owned only if the caller says so.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..api.async_front import AsyncRlzArchive
from ..api.config import ArchiveConfig, ServeSpec
from ..core import native
from ..errors import ConfigurationError, ProtocolError
from ..search.serving import PostingsStore, index_sidecar_path
from ..storage.partition import (
    PartitionManifest,
    clear_overlay,
    read_manifest,
    read_overlay,
    rewrite_partition_store,
    write_overlay,
)
from .cluster import ShardMap

__all__ = ["ArchiveEntry", "PartitionState", "RlzRouter"]


class PartitionState:
    """A partitioned archive's live placement view: manifest + hash ring.

    Immutable — installing a new epoch builds a *new* state and swaps it
    in, so a request that grabbed the old state keeps a consistent
    (manifest, ring) pair for its whole lifetime.
    """

    def __init__(self, manifest: PartitionManifest) -> None:
        self.manifest = manifest
        self.ring = ShardMap(
            list(manifest.shards),
            virtual_nodes=manifest.virtual_nodes,
            epoch=manifest.epoch,
        )
        self.ring_id = ShardMap.ring_id(manifest.shard)

    @property
    def epoch(self) -> int:
        return self.manifest.epoch

    def owns(self, doc_id: int) -> bool:
        """Whether this shard's arc covers ``doc_id`` under the manifest map."""
        return ShardMap.ring_id(self.ring.primary(doc_id)) == self.ring_id


class ArchiveEntry:
    """One named archive hosted by a router: lazy front + gate + counters."""

    def __init__(
        self,
        name: str,
        path: Optional[Path],
        config: ArchiveConfig,
        front: Optional[AsyncRlzArchive] = None,
        owned: bool = True,
    ) -> None:
        self.name = name
        self.path = path
        self.config = config
        self.front = front
        self.owned = owned
        # Created on first use: asyncio primitives must bind the loop that
        # will use them, and entries are registered before the loop runs.
        self.gate: Optional[asyncio.Semaphore] = None
        self.open_lock: Optional[asyncio.Lock] = None
        #: Requests parked behind a saturated gate right now; once this
        #: reaches ``max_inflight`` the server sheds load with R_BUSY.
        self.waiting = 0
        #: Requests currently holding a gate slot (decoding).
        self.active = 0
        self.requests = 0
        self.errors = 0
        self.busy_rejections = 0
        #: Requests dropped because their wire deadline expired before or
        #: while they queued — no decode work was done for these.
        self.deadline_rejections = 0
        #: Exponential moving average of per-request service seconds;
        #: seeds the retry-after hint R_BUSY carries.
        self.ewma_seconds = 0.0
        #: Partition placement (``None`` = unpartitioned: serve everything).
        self.partition: Optional[PartitionState] = None
        #: Documents staged by INGEST during a live rebalance, served from
        #: memory alongside the front until the next INSTALL_MAP commits
        #: them into the store (mirrored to the on-disk sidecar).
        self.overlay: Dict[int, bytes] = {}
        #: Whether the partition manifest/sidecar have been loaded.
        self.partition_loaded = False
        #: Requests refused with R_WRONG_SHARD (stale-map clients).
        self.wrong_shard_rejections = 0
        #: The sidecar postings index, loaded with the front when the
        #: ``<container>.idx`` file exists (``None`` = no search serving).
        self.search_index: Optional["PostingsStore"] = None
        #: Whether the sidecar load was attempted (one attempt per front).
        self.search_loaded = False
        #: SEARCH requests answered from the index.
        self.search_requests = 0

    def owns(self, doc_id: int) -> bool:
        """Whether this entry may serve ``doc_id`` right now.

        Unpartitioned archives own everything.  A partitioned archive owns
        its manifest arc *plus* anything staged in the overlay — the
        "plus" is what lets donor and recipient both answer for a moving
        arc during a live rebalance, so reads never fail mid-handoff.
        """
        if self.partition is None:
            return True
        return doc_id in self.overlay or self.partition.owns(doc_id)

    def shard_map_reply(self) -> Tuple[int, List[str], int]:
        """The (epoch, labels, virtual_nodes) this archive announces.

        Unpartitioned archives answer the static sentinel (epoch 0, no
        labels): clients keep whatever map they were configured with.
        """
        if self.partition is None:
            return 0, [], 1
        manifest = self.partition.manifest
        return manifest.epoch, list(manifest.shards), manifest.virtual_nodes

    @property
    def max_inflight(self) -> int:
        return self.config.serve.max_inflight

    def observe(self, elapsed: float) -> None:
        """Fold one request's service time into the EWMA."""
        if self.ewma_seconds:
            self.ewma_seconds = 0.9 * self.ewma_seconds + 0.1 * elapsed
        else:
            self.ewma_seconds = elapsed

    def retry_after_ms(self) -> int:
        """A retry-after hint (ms) for a client shed with R_BUSY.

        The backlog ahead of a returning client is roughly ``waiting + 1``
        requests draining through ``max_inflight`` lanes at the observed
        EWMA service time; before any request has completed, fall back to
        a small fixed delay.  Capped so a stats glitch never tells clients
        to go away for minutes.
        """
        per_request = self.ewma_seconds or 0.010
        estimate = per_request * (self.waiting + 1) / max(1, self.max_inflight)
        return max(1, min(5000, int(estimate * 1000)))

    def health(self) -> Dict[str, Union[float, str]]:
        """This archive's readiness/load snapshot (the HEALTH payload).

        ``decode_kernel`` is ``"native"`` or ``"python"``: the decoder the
        open archive's scheme runs, or, before the archive is opened, the
        one this process would use (loading the kernel if not yet loaded).
        """
        return {
            "open": int(self.front is not None),
            "max_inflight": self.max_inflight,
            "active": self.active,
            "waiting": self.waiting,
            "saturated": int(self.waiting >= self.max_inflight),
            "ewma_ms": round(self.ewma_seconds * 1000, 3),
            "retry_after_ms": self.retry_after_ms(),
            "requests": self.requests,
            "errors": self.errors,
            "busy_rejections": self.busy_rejections,
            "deadline_rejections": self.deadline_rejections,
            "epoch": self.partition.epoch if self.partition is not None else 0,
            "overlay_documents": len(self.overlay),
            "wrong_shard_rejections": self.wrong_shard_rejections,
            "search_index": int(self.search_index is not None),
            "search_requests": self.search_requests,
            "decode_kernel": (
                self.front.archive.store.decode_kernel
                if self.front is not None
                else native.decoder_name()
            ),
        }

    def stats_into(self, snapshot: Dict[str, float]) -> None:
        """Per-archive counters (and front stats once opened)."""
        prefix = f"archive_{self.name or 'default'}"
        snapshot[f"{prefix}_requests"] = self.requests
        snapshot[f"{prefix}_errors"] = self.errors
        snapshot[f"{prefix}_busy_rejections"] = self.busy_rejections
        snapshot[f"{prefix}_deadline_rejections"] = self.deadline_rejections
        snapshot[f"{prefix}_active"] = self.active
        snapshot[f"{prefix}_waiting"] = self.waiting
        snapshot[f"{prefix}_ewma_ms"] = round(self.ewma_seconds * 1000, 3)
        snapshot[f"{prefix}_open"] = int(self.front is not None)


class RlzRouter:
    """Dispatch connections to named archives, opening each lazily.

    Parameters
    ----------
    archives:
        ``name -> container path`` of the archives to host.  Paths are not
        touched until a connection asks for the name.
    config:
        The :class:`ArchiveConfig` every archive opens with (cache tier,
        serve gate, ...).  Per-archive configs can be supplied through
        :meth:`add`.
    default:
        Archive name served to clients that do not pick one (they send
        an empty name).  Defaults to the first
        registered archive.
    max_workers:
        Decode thread-pool width handed to each opened front.
    """

    def __init__(
        self,
        archives: Optional[Mapping[str, Union[str, Path]]] = None,
        config: Optional[ArchiveConfig] = None,
        default: Optional[str] = None,
        max_workers: Optional[int] = None,
    ) -> None:
        self._config = config or ArchiveConfig()
        self._max_workers = max_workers
        self._entries: Dict[str, ArchiveEntry] = {}
        self._default: Optional[str] = None
        self._closed = False
        #: Fronts replaced by an epoch install; kept open until the router
        #: closes so reads that entered them before the swap finish clean.
        self._retired: List[AsyncRlzArchive] = []
        for name, path in (archives or {}).items():
            self.add(name, path)
        if default is not None:
            if default not in self._entries:
                raise ConfigurationError(
                    f"default archive {default!r} is not registered "
                    f"(have: {sorted(self._entries) or '[]'})"
                )
            self._default = default

    @classmethod
    def for_front(
        cls,
        front: AsyncRlzArchive,
        name: str = "",
        config: Optional[ArchiveConfig] = None,
        owned: bool = True,
    ) -> "RlzRouter":
        """A router hosting one pre-opened front (the PR-4 single-archive
        path; ``owned`` says whether closing the router closes the front)."""
        router = cls(config=config)
        entry = ArchiveEntry(
            name=name,
            # Keep the container path even though the front is pre-opened:
            # resolve() still needs it to load the partition manifest and
            # any rebalance sidecar.
            path=Path(front.archive.path),
            config=config or ArchiveConfig(),
            front=front,
            owned=owned,
        )
        router._entries[name] = entry
        router._default = name
        return router

    # ------------------------------------------------------------------
    # Registration / introspection
    # ------------------------------------------------------------------
    def add(
        self,
        name: str,
        path: Union[str, Path],
        config: Optional[ArchiveConfig] = None,
    ) -> None:
        """Register archive ``name`` at ``path`` (not opened yet)."""
        if name in self._entries:
            raise ConfigurationError(f"archive {name!r} is already registered")
        self._entries[name] = ArchiveEntry(
            name=name, path=Path(path), config=config or self._config
        )
        if self._default is None:
            self._default = name

    @property
    def names(self) -> List[str]:
        """Registered archive names, registration order."""
        return list(self._entries)

    @property
    def default_name(self) -> Optional[str]:
        return self._default

    @property
    def closed(self) -> bool:
        return self._closed

    def entry(self, name: str = "") -> ArchiveEntry:
        """The entry for ``name`` ('' = default), without opening it."""
        if not name:
            if self._default is None:
                raise ConfigurationError("router hosts no archives")
            return self._entries[self._default]
        try:
            return self._entries[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown archive {name!r} (this server hosts: "
                f"{', '.join(self._entries) or 'none'})"
            ) from None

    def default_front(self) -> AsyncRlzArchive:
        """The default archive's front, if already open (sync callers)."""
        entry = self.entry("")
        if entry.front is None:
            raise ProtocolError(
                f"archive {entry.name or 'default'!r} has not been opened yet"
            )
        return entry.front

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def resolve(self, name: str = "") -> ArchiveEntry:
        """The entry for ``name`` with its front opened and gate ready.

        Lazy open runs on the default executor (it reads the container
        header and dictionary from disk), serialized per entry so two
        concurrent first connections open the archive once.
        """
        if self._closed:
            raise ProtocolError("router is closed")
        entry = self.entry(name)
        if entry.gate is None:
            entry.gate = asyncio.Semaphore(entry.max_inflight)
        if entry.open_lock is None:
            entry.open_lock = asyncio.Lock()
        if entry.front is None or not entry.partition_loaded or not entry.search_loaded:
            async with entry.open_lock:
                loop = asyncio.get_running_loop()
                if entry.front is None and not self._closed:
                    path, config, workers = entry.path, entry.config, self._max_workers
                    entry.front = await loop.run_in_executor(
                        None,
                        lambda: AsyncRlzArchive.open(
                            path, config, max_workers=workers
                        ),
                    )
                if not entry.partition_loaded:
                    if entry.path is not None:
                        manifest = await loop.run_in_executor(
                            None, read_manifest, entry.path
                        )
                        if manifest is not None:
                            entry.partition = PartitionState(manifest)
                            # Crash recovery: a rebalance interrupted after
                            # sidecar writes but before the epoch commit
                            # resumes with its staged documents intact.
                            entry.overlay.update(
                                await loop.run_in_executor(
                                    None, read_overlay, entry.path
                                )
                            )
                    entry.partition_loaded = True
                if not entry.search_loaded:
                    if entry.path is not None:
                        sidecar = index_sidecar_path(entry.path)
                        if await loop.run_in_executor(None, sidecar.exists):
                            entry.search_index = await loop.run_in_executor(
                                None, PostingsStore.open, sidecar
                            )
                    entry.search_loaded = True
        if entry.front is None:
            raise ProtocolError("router is closed")
        return entry

    # ------------------------------------------------------------------
    # Partitioned serving: staging + epoch installs
    # ------------------------------------------------------------------
    async def ingest(
        self, entry: ArchiveEntry, items: Sequence[Tuple[int, bytes]]
    ) -> List[int]:
        """Stage rebalance documents on ``entry``; return all staged ids.

        Items land in the in-memory overlay (served immediately — this is
        what makes the moving arc dual-homed during a handoff) and the
        whole overlay is mirrored to the on-disk sidecar before the ack,
        so a crashed recipient resumes from its last acked batch.  An
        empty ``items`` is the resume probe: pure read of the staged set.
        """
        if entry.partition is None:
            raise ProtocolError(
                f"archive {entry.name or 'default'!r} is not partitioned"
            )
        assert entry.open_lock is not None
        async with entry.open_lock:
            if items:
                for doc_id, data in items:
                    entry.overlay[int(doc_id)] = bytes(data)
                snapshot = dict(entry.overlay)
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(
                    None, write_overlay, entry.path, snapshot
                )
            return sorted(entry.overlay)

    async def install_map(
        self,
        entry: ArchiveEntry,
        epoch: int,
        labels: Sequence[str],
        virtual_nodes: int,
    ) -> Tuple[int, List[str], int]:
        """Commit a new shard-map epoch on ``entry``; return the map served.

        Idempotent: an epoch at or below the current one changes nothing
        and answers the current map.  A newer epoch recomputes the owned
        arc over store ∪ overlay, rewrites the container (kept blobs
        verbatim, staged documents encoded in, shed documents dropped) and
        swaps state in an order that never fails a concurrent read:

        1. the new :class:`PartitionState` goes live (requests for shed
           documents start refusing with the *new* epoch, requests for
           kept/staged documents keep succeeding via overlay or old front);
        2. a front over the rewritten container replaces the old front —
           which is *retired*, not closed, so reads that already entered
           it finish against the old (complete) file;
        3. the overlay and its sidecar are cleared (their documents are in
           the store now).
        """
        if entry.partition is None:
            raise ProtocolError(
                f"archive {entry.name or 'default'!r} is not partitioned"
            )
        assert entry.open_lock is not None
        async with entry.open_lock:
            state = entry.partition
            current = state.manifest
            if epoch <= current.epoch:
                return current.epoch, list(current.shards), current.virtual_nodes
            new_manifest = current.with_map(epoch, labels, virtual_nodes)
            new_state = PartitionState(new_manifest)
            front = entry.front
            if front is None:
                raise ProtocolError("archive front is not open")
            stored = set(front.archive.doc_ids())
            owned = {
                doc_id
                for doc_id in stored | set(entry.overlay)
                if new_state.owns(doc_id)
            }
            keep = sorted(owned & stored)
            add_docs = {
                doc_id: entry.overlay[doc_id]
                for doc_id in owned
                if doc_id in entry.overlay
            }
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                None,
                lambda: rewrite_partition_store(
                    entry.path, keep, add_docs, new_manifest
                ),
            )
            path, config, workers = entry.path, entry.config, self._max_workers
            new_front = await loop.run_in_executor(
                None,
                lambda: AsyncRlzArchive.open(path, config, max_workers=workers),
            )
            entry.partition = new_state
            old_front, entry.front = entry.front, new_front
            if old_front is not None and entry.owned:
                self._retired.append(old_front)
            entry.overlay.clear()
            await loop.run_in_executor(None, clear_overlay, entry.path)
            if entry.search_index is not None or (
                entry.path is not None and index_sidecar_path(entry.path).exists()
            ):
                # The store's document set just changed: rebuild the
                # postings sidecar over the rewritten store so SEARCH
                # never ranks against a stale arc (and a restarted server
                # never loads one).
                sidecar = index_sidecar_path(entry.path)

                def _reindex() -> PostingsStore:
                    from ..search.serving import write_postings

                    write_postings(new_front.archive.iter_documents(), sidecar)
                    return PostingsStore.open(sidecar)

                entry.search_index = await loop.run_in_executor(None, _reindex)
                entry.search_loaded = True
            return epoch, list(new_manifest.shards), virtual_nodes

    def stats(self) -> Dict[str, float]:
        """Per-archive counters plus the default front's archive stats."""
        snapshot: Dict[str, float] = {"router_archives": len(self._entries)}
        for entry in self._entries.values():
            entry.stats_into(snapshot)
        default = self.entry("") if self._entries else None
        if default is not None and default.front is not None and not default.front.closed:
            snapshot.update(default.front.stats())
        return snapshot

    def health(self) -> Dict[str, Dict[str, Union[float, str]]]:
        """Readiness/load per archive (the HEALTH response payload).

        Pure bookkeeping — never opens a front or touches the gate, so it
        stays answerable even when every archive is saturated.
        """
        return {
            (entry.name or "default"): entry.health()
            for entry in self._entries.values()
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def close(self) -> None:
        """Close every owned, opened front (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for entry in self._entries.values():
            front = entry.front
            if front is not None and entry.owned and not front.closed:
                await front.close()
        for front in self._retired:
            if not front.closed:
                await front.close()
        self._retired.clear()
