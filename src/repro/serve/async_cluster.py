"""Asyncio cluster client: consistent-hash fan-out over multiplexed sockets.

:class:`AsyncClusterClient` is the coroutine mirror of
:class:`~repro.serve.cluster.ClusterClient`: the same ring-id placement
(:class:`~repro.serve.cluster.ShardMap`), the same epoch bootstrap /
``R_WRONG_SHARD`` refresh machinery for partitioned fleets, and the same
byte-identical :class:`~repro.api.ArchiveView` semantics — but every
endpoint is an :class:`~repro.serve.client.AsyncRlzClient`, so all the
concurrency rides each shard's *one* multiplexed connection instead of a
thread per request.  ``get_many`` fans its per-shard batches out with
``asyncio.gather``; ``gather`` multiplexes per-document requests.

Failover is ring-order: a connection-level error moves the request to the
next endpoint on the document's arc.  Archive errors (a missing document)
are answers and propagate unchanged.  Wrong-shard refusals refresh the
map from the fleet and retry against the new owner, bounded by the shared
:class:`~repro.serve.retry.RetryBudget` exactly like the sync client.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import (
    ConfigurationError,
    ProtocolError,
    StoreClosedError,
    WrongShardError,
)
from .client import AsyncRlzClient
from .cluster import ShardMap, _FAILOVER_ERRORS
from .protocol import SearchHit
from .retry import RetryBudget

__all__ = ["AsyncClusterClient"]


class AsyncClusterClient:
    """One async :class:`~repro.api.ArchiveView` over N server endpoints.

    Accepts the same endpoint labels as the sync cluster client:
    ``host:port`` for replica fleets (every endpoint serves everything)
    or ``ringid@host:port`` for partitioned fleets (the ring id is what
    placement hashes; the transport can move without remapping).
    """

    def __init__(
        self,
        endpoints: Sequence[Union[str, Tuple[str, int]]],
        archive: str = "",
        virtual_nodes: int = 64,
        deadline_ms: int = 0,
        retry_budget: Optional[RetryBudget] = None,
        **client_options,
    ) -> None:
        labels = [self._normalize(endpoint) for endpoint in endpoints]
        self._shard_map = ShardMap(labels, virtual_nodes=virtual_nodes)
        self._archive = archive
        self._budget = retry_budget if retry_budget is not None else RetryBudget()
        client_options.setdefault("deadline_ms", deadline_ms)
        client_options.setdefault("retry_budget", self._budget)
        self._client_options = client_options
        self._clients: Dict[str, AsyncRlzClient] = {}
        for label in labels:
            self._add_endpoint(label)
        self._closed = False
        self._doc_ids: Optional[List[int]] = None
        self._failovers = 0
        self._epoch_refreshes = 0
        self._wrong_shard_retries = 0
        self._bootstrapped = False
        self._stats_cache: "OrderedDict[str, Tuple[int, int, Dict[str, int]]]" = (
            OrderedDict()
        )
        self._stats_cache_hits = 0
        self._stats_cache_misses = 0

    @staticmethod
    def _normalize(endpoint: Union[str, Tuple[str, int]]) -> str:
        if isinstance(endpoint, tuple):
            host, port = endpoint
            return f"{host}:{int(port)}"
        endpoint = str(endpoint).strip()
        host, _, port_text = ShardMap.transport(endpoint).rpartition(":")
        if not host or not port_text.isdigit():
            raise ConfigurationError(
                f"endpoint must be host:port (optionally shard@host:port), "
                f"got {endpoint!r}"
            )
        return endpoint

    def _add_endpoint(self, label: str) -> None:
        if label in self._clients:
            return
        host, _, port_text = ShardMap.transport(label).rpartition(":")
        self._clients[label] = AsyncRlzClient(
            host, int(port_text), archive=self._archive, **self._client_options
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shard_map(self) -> ShardMap:
        return self._shard_map

    @property
    def endpoints(self) -> List[str]:
        return self._shard_map.endpoints

    @property
    def archive_name(self) -> str:
        return self._archive

    @property
    def epoch(self) -> int:
        """The epoch of the shard map currently routing requests."""
        return self._shard_map.epoch

    @property
    def epoch_refreshes(self) -> int:
        """How many times a newer shard map has been adopted."""
        return self._epoch_refreshes

    @property
    def failovers(self) -> int:
        """How many times a request was re-routed off its primary."""
        return self._failovers

    @property
    def retry_budget(self) -> RetryBudget:
        """The token bucket shared by every shard client's retries."""
        return self._budget

    # ------------------------------------------------------------------
    # Shard-map epochs (partitioned fleets)
    # ------------------------------------------------------------------
    def _resolve_wire_labels(self, labels: Sequence[str]) -> Optional[List[str]]:
        """Graft known transports onto ring-id-only wire labels.

        Mirrors :meth:`ClusterClient._resolve_wire_labels`: a ring id with
        no known transport makes the whole map unusable (``None``).
        """
        known = {
            ShardMap.ring_id(label): ShardMap.transport(label)
            for label in self._clients
        }
        resolved: List[str] = []
        for label in labels:
            if "@" in label or ":" in label:
                resolved.append(label)
                continue
            transport = known.get(ShardMap.ring_id(label))
            if transport is None:
                return None
            resolved.append(f"{label}@{transport}")
        return resolved

    def _adopt(self, epoch: int, labels: Sequence[str], virtual_nodes: int) -> bool:
        """Install a newer shard map (no-op unless ``epoch`` advances)."""
        if not labels or epoch <= self._shard_map.epoch:
            return False
        resolved = self._resolve_wire_labels(labels)
        if resolved is None:
            return False
        for label in resolved:
            self._add_endpoint(label)
        self._shard_map = ShardMap(resolved, virtual_nodes=virtual_nodes, epoch=epoch)
        self._epoch_refreshes += 1
        # A new epoch moves documents between shards; cached global corpus
        # statistics summed under the old placement are stale.
        self._stats_cache.clear()
        return True

    async def refresh_shard_map(self, prefer: Optional[str] = None) -> bool:
        """Pull the shard map from the fleet; adopt it if its epoch is newer."""
        self._ensure_open()
        ordering = [prefer] if prefer in self._clients else []
        ordering += [label for label in self.endpoints if label not in ordering]
        ordering += [label for label in self._clients if label not in ordering]
        for label in ordering:
            try:
                epoch, labels, virtual_nodes = await self._clients[label].shard_map()
            except _FAILOVER_ERRORS + (ProtocolError, asyncio.TimeoutError):
                continue
            if self._adopt(epoch, labels, virtual_nodes):
                return True
        return False

    async def _maybe_bootstrap(self) -> None:
        """One-time lazy shard-map bootstrap from any reachable endpoint."""
        if self._bootstrapped:
            return
        self._bootstrapped = True
        try:
            await self.refresh_shard_map()
        except StoreClosedError:
            raise
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreClosedError("async cluster client is closed")

    async def _shard_call(self, doc_id: int, call):
        """``await call(client)`` on the document's arc with ring failover."""
        candidates = self._shard_map.route(doc_id)
        last_error: Optional[BaseException] = None
        for position, label in enumerate(candidates):
            try:
                result = await call(self._clients[label])
            except _FAILOVER_ERRORS + (asyncio.TimeoutError,) as exc:
                last_error = exc
                if position + 1 < len(candidates):
                    self._failovers += 1
                continue
            return result
        assert last_error is not None
        raise last_error

    async def _retry_wrong_shard(self, call):
        """Run ``call``; on a wrong-shard refusal refresh the map and retry.

        Bounded exactly like the sync client: each retry must either
        follow an adopted newer epoch or spend a budget token.
        """
        attempts = 0
        while True:
            try:
                return await call()
            except WrongShardError:
                attempts += 1
                refreshed = await self.refresh_shard_map()
                if attempts > max(2, len(self.endpoints)) or not self._budget.spend():
                    raise
                if not refreshed and attempts > 1:
                    raise
                self._wrong_shard_retries += 1

    # ------------------------------------------------------------------
    # AsyncArchiveView
    # ------------------------------------------------------------------
    async def get(self, doc_id: int, deadline_ms: Optional[int] = None) -> bytes:
        """One decoded document from the shard that owns it."""
        self._ensure_open()
        await self._maybe_bootstrap()
        return await self._retry_wrong_shard(
            lambda: self._shard_call(
                doc_id, lambda client: client.get(doc_id, deadline_ms=deadline_ms)
            )
        )

    async def get_many(
        self, doc_ids: Sequence[int], deadline_ms: Optional[int] = None
    ) -> List[bytes]:
        """Batch retrieval fanned out per shard, request order preserved."""
        self._ensure_open()
        await self._maybe_bootstrap()
        doc_ids = list(doc_ids)
        if not doc_ids:
            return []
        results: List[Optional[bytes]] = [None] * len(doc_ids)

        async def fetch_all() -> List[bytes]:
            pending = [
                index for index, slot in enumerate(results) if slot is None
            ]
            by_shard: Dict[str, List[int]] = {}
            for index in pending:
                label = self._shard_map.primary(doc_ids[index])
                by_shard.setdefault(label, []).append(index)

            async def fetch(label: str, indexes: List[int]) -> None:
                ids = [doc_ids[index] for index in indexes]
                documents = await self._shard_call(
                    ids[0],
                    lambda client: client.get_many(ids, deadline_ms=deadline_ms),
                )
                for index, document in zip(indexes, documents):
                    results[index] = document

            await asyncio.gather(
                *(fetch(label, indexes) for label, indexes in by_shard.items())
            )
            return [document for document in results if document is not None]

        await self._retry_wrong_shard(fetch_all)
        assert all(document is not None for document in results)
        return list(results)  # type: ignore[arg-type]

    async def gather(self, doc_ids: Sequence[int]) -> List[bytes]:
        """Fan per-document requests out concurrently across the fleet."""
        return list(
            await asyncio.gather(*(self.get(doc_id) for doc_id in doc_ids))
        )

    async def iter_documents(self, batch_docs: int = 64):
        """Async-iterate every document in exact global store order.

        Implemented as batched :meth:`get_many` over the fleet's doc
        order, so the stream survives failovers *and* mid-iteration
        rebalances (each batch re-routes against the current map).
        """
        order = await self.doc_ids()
        for start in range(0, len(order), batch_docs):
            batch = order[start : start + batch_docs]
            documents = await self.get_many(batch)
            for doc_id, document in zip(batch, documents):
                yield doc_id, document

    async def doc_ids(self) -> List[int]:
        """Global store-order doc ids (from any endpoint; cached)."""
        self._ensure_open()
        await self._maybe_bootstrap()
        if self._doc_ids is None:
            last_error: Optional[BaseException] = None
            for label in self.endpoints:
                try:
                    self._doc_ids = await self._clients[label].doc_ids()
                except _FAILOVER_ERRORS + (asyncio.TimeoutError,) as exc:
                    last_error = exc
                    continue
                break
            if self._doc_ids is None:
                assert last_error is not None
                raise last_error
        return list(self._doc_ids)

    async def stats(self) -> Dict[str, float]:
        """Cluster counters plus every reachable endpoint's snapshot."""
        self._ensure_open()
        snapshot: Dict[str, float] = {
            "cluster_endpoints": len(self.endpoints),
            "cluster_failovers": self._failovers,
            "cluster_virtual_nodes": self._shard_map.virtual_nodes,
            "cluster_retry_budget_spent": self._budget.spent,
            "cluster_retry_budget_denied": self._budget.denied,
            "cluster_epoch": self._shard_map.epoch,
            "cluster_epoch_refreshes": self._epoch_refreshes,
            "cluster_wrong_shard_retries": self._wrong_shard_retries,
            "cluster_search_stats_cache_hits": self._stats_cache_hits,
            "cluster_search_stats_cache_misses": self._stats_cache_misses,
        }
        for index, label in enumerate(self.endpoints):
            try:
                shard_stats = await self._clients[label].stats()
            except _FAILOVER_ERRORS + (asyncio.TimeoutError,):
                snapshot[f"shard{index}_reachable"] = 0
                continue
            snapshot[f"shard{index}_reachable"] = 1
            for key, value in shard_stats.items():
                snapshot[f"shard{index}_{key}"] = value
        return snapshot

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    async def search(
        self,
        query: str,
        top_k: int = 10,
        snippet_chars: int = 0,
        deadline_ms: Optional[int] = None,
    ) -> List[SearchHit]:
        """Exact global BM25 top-k across every shard.

        The coroutine mirror of :meth:`ClusterClient.search`: one
        ``asyncio.gather`` collects per-shard corpus statistics, their
        sums become the global idf inputs, a second gather ranks every
        shard with them, and the merged ``(-score, doc_id)`` order
        reproduces a single-index run exactly.  No failover — a shard
        that cannot answer fails the query (its documents exist nowhere
        else).
        """
        self._ensure_open()
        await self._maybe_bootstrap()
        labels = self.endpoints
        global_stats = await self._global_search_stats(query, deadline_ms)
        per_shard = await asyncio.gather(
            *(
                self._clients[label].search(
                    query,
                    top_k=top_k,
                    snippet_chars=snippet_chars,
                    global_stats=global_stats,
                    deadline_ms=deadline_ms,
                )
                for label in labels
            )
        )
        merged = [hit for hits in per_shard for hit in hits]
        merged.sort(key=lambda hit: (-hit.score, hit.doc_id))
        return merged[:top_k]

    #: Distinct queries whose global statistics are kept per epoch.
    _STATS_CACHE_CAP = 256

    async def _global_search_stats(
        self, query: str, deadline_ms: Optional[int]
    ) -> Tuple[int, int, Dict[str, int]]:
        """Global corpus statistics for ``query``, cached per shard-map epoch.

        The coroutine mirror of :meth:`ClusterClient._global_search_stats`:
        one stats fan-out per (query, epoch); :meth:`_adopt` clears the
        cache when a newer shard map moves documents between shards.
        """
        cached = self._stats_cache.get(query)
        if cached is not None:
            self._stats_cache.move_to_end(query)
            self._stats_cache_hits += 1
            return cached
        stats = await asyncio.gather(
            *(
                self._clients[label].search_stats(query, deadline_ms=deadline_ms)
                for label in self.endpoints
            )
        )
        num_documents = sum(shard[0] for shard in stats)
        total_length = sum(shard[1] for shard in stats)
        frequencies: Dict[str, int] = {}
        for _, _, shard_df in stats:
            for term, df in shard_df.items():
                frequencies[term] = frequencies.get(term, 0) + df
        global_stats = (num_documents, total_length, frequencies)
        self._stats_cache_misses += 1
        self._stats_cache[query] = global_stats
        self._stats_cache.move_to_end(query)
        while len(self._stats_cache) > self._STATS_CACHE_CAP:
            self._stats_cache.popitem(last=False)
        return global_stats

    async def ping(self) -> float:
        """Round-trip time to the slowest reachable endpoint."""
        self._ensure_open()
        times = []
        for label in self.endpoints:
            try:
                times.append(await self._clients[label].ping())
            except _FAILOVER_ERRORS + (asyncio.TimeoutError,):
                continue
        if not times:
            raise ConnectionError("no cluster endpoint is reachable")
        return max(times)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    async def close(self) -> None:
        """Close every per-endpoint client (idempotent)."""
        self._closed = True
        for client in self._clients.values():
            await client.close()

    async def __aenter__(self) -> "AsyncClusterClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
