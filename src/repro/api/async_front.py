"""Asyncio serving front for :class:`repro.api.RlzArchive`.

Heavy-traffic serving is many concurrent clients asking for overlapping
sets of documents.  :class:`AsyncRlzArchive` puts an asyncio front on an
archive:

* decode work is offloaded to the archive's one request-path pool, so the
  event loop stays free while a request decodes.  The pool has one thread
  by default: more threads only contend for the GIL with each other and
  with the event loop (PERFORMANCE.md, "Backpressure and shutdown model").
  The store's file handle is seek/read-atomic and the cache tiers are
  thread-safe, so a wider pool stays correct;
* duplicate in-flight ``get``\\ s for the same document are *coalesced*:
  the first request decodes, every concurrent duplicate awaits the same
  future and shares the result — the decode runs once no matter how many
  clients ask while it is in flight;
* ``get_many`` offloads one ``RlzArchive.get_many`` call, which decodes
  each missing document once, one at a time; ``gather`` fans a list of IDs
  out as coalescible per-document requests;
* :meth:`AsyncRlzArchive.offload` runs other archive work (a server's
  SEARCH scoring and snippet windows) on the same pool.

The front owns nothing the archive does not: closing it shuts the pool
down and closes the archive (cache tier included).
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, TypeVar, Union

from ..errors import StoreClosedError
from .archive import RlzArchive
from .config import ArchiveConfig

__all__ = ["AsyncRlzArchive"]

T = TypeVar("T")

#: Decode threads per archive when ``max_workers`` is not given.
DEFAULT_DECODE_THREADS = 1


class AsyncRlzArchive:
    """Async request front over an :class:`RlzArchive`.

    Parameters
    ----------
    archive:
        The archive to serve (takes ownership: closing the front closes it).
    max_workers:
        Thread-pool width for decode offload.  ``None`` uses
        :data:`DEFAULT_DECODE_THREADS` (one thread).
    """

    def __init__(self, archive: RlzArchive, max_workers: Optional[int] = None) -> None:
        self._archive = archive
        self._executor = ThreadPoolExecutor(
            max_workers=DEFAULT_DECODE_THREADS if max_workers is None else max_workers,
            thread_name_prefix="rlz-serve",
        )
        self._inflight: Dict[int, "asyncio.Future[bytes]"] = {}
        self._requests = 0
        self._coalesced = 0
        self._closed = False

    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        config: Optional[ArchiveConfig] = None,
        max_workers: Optional[int] = None,
    ) -> "AsyncRlzArchive":
        """Open an archive and wrap it in an async front (synchronous call)."""
        return cls(RlzArchive.open(path, config), max_workers=max_workers)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def archive(self) -> RlzArchive:
        """The wrapped archive."""
        return self._archive

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def stats(self) -> Dict[str, float]:
        """Front-side counters merged with the archive's serving stats."""
        snapshot = self._archive.stats()
        snapshot["async_requests"] = self._requests
        snapshot["async_coalesced"] = self._coalesced
        snapshot["async_inflight"] = len(self._inflight)
        return snapshot

    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreClosedError(
                f"async front over {self._archive.path} is closed"
            )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    async def get(self, doc_id: int) -> bytes:
        """One document; concurrent duplicates share a single decode.

        The decode future belongs to the *request*, not to whichever client
        happened to arrive first: every awaiter (first or coalesced) is
        shielded, so cancelling any one client — including the one that
        started the decode — neither cancels the running decode nor poisons
        the result the others are awaiting.
        """
        self._ensure_open()
        self._requests += 1
        future = self._inflight.get(doc_id)
        if future is not None and future.cancelled():
            # A cancelled decode (a timeout path cancelled the executor
            # future before its done-callback ran) must not satisfy new
            # requests: evict it and decode fresh.
            if self._inflight.get(doc_id) is future:
                del self._inflight[doc_id]
            future = None
        if future is not None:
            self._coalesced += 1
        else:
            loop = asyncio.get_running_loop()
            future = loop.run_in_executor(self._executor, self._archive.get, doc_id)
            self._inflight[doc_id] = future

            def _on_done(completed: "asyncio.Future[bytes]") -> None:
                # Only drop the map entry if it is still *this* future: a
                # cancelled entry may already have been replaced by a fresh
                # decode that must stay coalescible.
                if self._inflight.get(doc_id) is completed:
                    del self._inflight[doc_id]
                if not completed.cancelled():
                    # Mark a failure retrieved: every awaiter may have been
                    # cancelled, and an unobserved exception would warn at
                    # garbage collection.
                    completed.exception()

            future.add_done_callback(_on_done)
        return await asyncio.shield(future)

    async def get_many(self, doc_ids: Sequence[int]) -> List[bytes]:
        """The whole request in one pool submission (each miss decoded once)."""
        self._ensure_open()
        doc_ids = list(doc_ids)
        self._requests += len(doc_ids)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, self._archive.get_many, doc_ids
        )

    async def offload(self, func: Callable[..., T], *args) -> T:
        """``func(*args)`` on this archive's decode pool."""
        self._ensure_open()
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, func, *args)

    async def gather(self, doc_ids: Sequence[int]) -> List[bytes]:
        """Fan out per-document requests concurrently (coalescing applies)."""
        return list(await asyncio.gather(*(self.get(doc_id) for doc_id in doc_ids)))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def close(self) -> None:
        """Drain the pool and close the archive (idempotent)."""
        if self._closed:
            return
        self._closed = True
        loop = asyncio.get_running_loop()
        # shutdown(wait=True) blocks until in-flight decodes finish; keep
        # the event loop responsive by waiting in the default executor.
        await loop.run_in_executor(None, self._executor.shutdown)
        self._archive.close()

    async def __aenter__(self) -> "AsyncRlzArchive":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
