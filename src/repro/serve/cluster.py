"""Consistent-hash client fan-out: one :class:`ArchiveView` over N servers.

The north star is heavy traffic from millions of users, which means many
servers.  :class:`ClusterClient` makes a fleet of
:class:`~repro.serve.RlzServer` endpoints look like one archive:

* a :class:`ShardMap` — a consistent-hash ring built with the same
  Fibonacci-hash multiplier as :class:`repro.storage.SharedMemoryCache`
  and :class:`repro.suffix.CompactJumpIndex` — assigns every doc id a
  stable *preference order* over the endpoints.  Each endpoint owns the
  arc behind its virtual points, so adding or removing one endpoint only
  remaps the documents it owned (the classic consistent-hashing
  guarantee), which keeps per-server decode caches hot across fleet
  changes;
* every endpoint is assumed to be able to serve every document (replicas
  of one archive, the deployment the benchmarks and CI run): the shard
  map spreads load and concentrates each document's cache hits on its
  primary, and the remaining ring order is the **failover path**;
* a per-endpoint :class:`CircuitBreaker` trips after consecutive
  connection failures and re-routes around the dead endpoint for a
  cooldown, so a dead shard costs one failed dial per cooldown instead
  of hammering retries on every request;
* ``get_many`` fans out one *pipelined* batch per endpoint (concurrent
  threads), fans the replies back in, and preserves input order exactly —
  duplicates included; documents of a shard that dies mid-batch are
  re-routed to the next endpoint on their ring order and the result is
  byte-identical to a single-archive read;
* ``iter_documents`` scans every shard with the chunked ``SCAN`` opcode
  (each endpoint streams only the documents it owns, in store order) and
  merges the streams back into exact store order.

The client implements :class:`repro.api.ArchiveView`, so everything
written against the facade — ``repro get``, the conformance battery, the
benchmarks — runs unchanged over a whole fleet.
"""

from __future__ import annotations

import queue
import threading
import time
from bisect import bisect_left
from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import (
    ConfigurationError,
    ProtocolError,
    ServerBusyError,
    StoreClosedError,
    WrongShardError,
)
from .client import RlzClient
from .protocol import SearchHit
from .retry import RetryBudget

__all__ = ["CircuitBreaker", "ClusterClient", "ShardMap"]

#: Fibonacci-hashing multiplier (odd, ~2**64 / golden ratio) — the same
#: constant the shared cache and the compact jump index use.
_FIB_MULTIPLIER = 0x9E3779B97F4A7C15
_MASK_64 = (1 << 64) - 1
#: Odd mixing constant for virtual-node indices (a second multiplier so a
#: vnode's points do not collide with doc-id hashes).
_VNODE_MIX = 0xA24BAED4963EE407


def _fib32(value: int) -> int:
    """The high 32 bits of the 64-bit Fibonacci hash of ``value``."""
    return ((value * _FIB_MULTIPLIER) & _MASK_64) >> 32


def _endpoint_seed(endpoint: str) -> int:
    """A stable 64-bit seed for an endpoint label (no PYTHONHASHSEED)."""
    seed = 0xCBF29CE484222325  # FNV-1a offset basis
    for byte in endpoint.encode("utf-8"):
        seed = ((seed ^ byte) * 0x100000001B3) & _MASK_64
    return seed


class ShardMap:
    """A consistent-hash ring from doc ids to endpoint preference orders.

    Every endpoint contributes ``virtual_nodes`` points on a 32-bit ring;
    a doc id hashes (Fibonacci) to a ring position and its *primary* is
    the endpoint owning the next point clockwise.  Walking further
    clockwise yields the failover order.  Ring points depend only on the
    endpoint *labels*, so two clients built from the same endpoint list —
    in any order — route identically, and removing an endpoint only
    remaps the documents it owned.

    A label is either a plain ``host:port`` (replica clusters, where the
    endpoint *is* the identity) or ``name@host:port`` for partitioned
    fleets: the part before ``@`` is the **ring id** that placement
    hashes, the part after is the transport address.  Splitting the two
    lets an offline ``repro partition`` build decide placement with
    logical shard names ("shard0", "shard1", ...) before any server has
    an address, and lets a rebalance move a shard to a new address
    without remapping a single document.

    ``epoch`` versions the map: partitioned fleets bump it on every
    rebalance, servers refuse doc ids they no longer own with the epoch
    they are at, and clients adopt whichever map carries the highest
    epoch.  Epoch 0 means "static/unversioned" (the PR-5 replica mode).
    """

    def __init__(
        self, endpoints: Sequence[str], virtual_nodes: int = 64, epoch: int = 0
    ) -> None:
        labels = [str(endpoint) for endpoint in endpoints]
        if not labels:
            raise ConfigurationError("ShardMap needs at least one endpoint")
        if len(set(labels)) != len(labels):
            raise ConfigurationError(f"duplicate endpoints: {labels}")
        ring_ids = [self.ring_id(label) for label in labels]
        if len(set(ring_ids)) != len(ring_ids):
            raise ConfigurationError(f"duplicate shard ring ids: {ring_ids}")
        if virtual_nodes <= 0:
            raise ConfigurationError("virtual_nodes must be positive")
        if epoch < 0:
            raise ConfigurationError("epoch must be non-negative")
        self._endpoints = labels
        self._virtual_nodes = virtual_nodes
        self._epoch = epoch
        points: List[Tuple[int, int]] = []
        for index, ring in enumerate(ring_ids):
            seed = _endpoint_seed(ring)
            for vnode in range(virtual_nodes):
                mixed = (seed ^ ((vnode * _VNODE_MIX) & _MASK_64)) & _MASK_64
                points.append((_fib32(mixed), index))
        # Ties (astronomically unlikely) resolve by endpoint index so the
        # ring is deterministic regardless of construction order.
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [owner for _, owner in points]

    @staticmethod
    def ring_id(label: str) -> str:
        """The placement identity of a label (the part before ``@``)."""
        return label.partition("@")[0]

    @staticmethod
    def transport(label: str) -> str:
        """The connection address of a label (after ``@``, or the whole)."""
        _, separator, address = label.partition("@")
        return address if separator else label

    @property
    def endpoints(self) -> List[str]:
        return list(self._endpoints)

    @property
    def virtual_nodes(self) -> int:
        return self._virtual_nodes

    @property
    def epoch(self) -> int:
        """The map's version (0 = static, unversioned)."""
        return self._epoch

    def route(self, doc_id: int) -> List[str]:
        """Every endpoint in preference order for ``doc_id`` (primary first)."""
        start = bisect_left(self._points, _fib32(doc_id)) % len(self._points)
        seen: List[str] = []
        seen_indices = set()
        for offset in range(len(self._points)):
            owner = self._owners[(start + offset) % len(self._points)]
            if owner not in seen_indices:
                seen_indices.add(owner)
                seen.append(self._endpoints[owner])
                if len(seen) == len(self._endpoints):
                    break
        return seen

    def primary(self, doc_id: int) -> str:
        """The endpoint that owns ``doc_id``."""
        start = bisect_left(self._points, _fib32(doc_id)) % len(self._points)
        return self._endpoints[self._owners[start]]

    def assignments(self, doc_ids: Sequence[int]) -> Dict[str, List[int]]:
        """Doc ids grouped by primary endpoint (order preserved per group)."""
        groups: Dict[str, List[int]] = {}
        for doc_id in doc_ids:
            groups.setdefault(self.primary(doc_id), []).append(doc_id)
        return groups


class CircuitBreaker:
    """Consecutive-failure trip with cooldown (per endpoint).

    Closed: requests flow and failures count.  After ``threshold``
    consecutive failures the breaker *opens*: :meth:`allow` answers False
    until ``cooldown`` seconds pass, at which point a *single* trial
    request is let through (half-open); a success closes the breaker, a
    failure re-opens it for another cooldown.  :meth:`allow` is a pure
    query — it never changes state, so routing layers may call it freely
    to *order* candidates without burning the half-open trial.
    :meth:`try_trial` is the admission check: in half-open it grants the
    probe to exactly one caller (concurrent callers are refused until the
    probe resolves), so a recovering endpoint sees one request, not a
    thundering herd of them arriving the instant the cooldown lapses.
    Thread-safe.
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ConfigurationError("breaker threshold must be at least 1")
        if cooldown < 0:
            raise ConfigurationError("breaker cooldown must be non-negative")
        self._threshold = threshold
        self._cooldown = cooldown
        self._clock = clock
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._trial_inflight = False
        self._lock = threading.Lock()
        self.trips = 0

    @property
    def state(self) -> str:
        with self._lock:
            if self._opened_at is None:
                return "closed"
            if self._clock() - self._opened_at >= self._cooldown:
                return "half-open"
            return "open"

    def allow(self) -> bool:
        """Whether a request may go to this endpoint right now (pure query)."""
        with self._lock:
            if self._opened_at is None:
                return True
            return self._clock() - self._opened_at >= self._cooldown

    def try_trial(self) -> bool:
        """Admit one request: always when closed, exactly once in half-open.

        A ``True`` from a non-closed breaker claims the half-open probe;
        the caller owes the breaker a ``record_success``,
        ``record_failure`` or ``release_trial`` to resolve it.  While the
        probe is unresolved every other caller is refused — two threads
        both probing a barely-recovered endpoint is how half-open states
        re-kill it.
        """
        with self._lock:
            if self._opened_at is None:
                return True
            if self._clock() - self._opened_at < self._cooldown:
                return False
            if self._trial_inflight:
                return False
            self._trial_inflight = True
            return True

    def release_trial(self) -> None:
        """Give the half-open probe back without deciding the outcome
        (e.g. the trial was answered R_BUSY: alive, but proof of nothing)."""
        with self._lock:
            self._trial_inflight = False

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._opened_at = None
            self._trial_inflight = False

    def record_failure(self) -> None:
        with self._lock:
            self._trial_inflight = False
            self._failures += 1
            if self._failures >= self._threshold:
                if self._opened_at is None:
                    self.trips += 1
                self._opened_at = self._clock()


#: Connection-level failures that trigger failover (archive-level errors —
#: a missing document, say — are answers, not failures).
_FAILOVER_ERRORS = (ConnectionError, TimeoutError, OSError)


class _Success:
    """A failover attempt's result (may legitimately be any value)."""

    __slots__ = ("result",)

    def __init__(self, result) -> None:
        self.result = result


class _Failure:
    """A failover attempt's connection-level error."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException) -> None:
        self.error = error


class ClusterClient:
    """One :class:`~repro.api.ArchiveView` over N server endpoints.

    Parameters
    ----------
    endpoints:
        ``host:port`` strings (or ``(host, port)`` tuples) of the servers.
        Every endpoint must be able to serve every document (replicas).
    archive:
        Archive name passed in each HELLO (multi-archive routers).
    virtual_nodes:
        Consistent-hash points per endpoint (see :class:`ShardMap`).
    breaker_threshold, breaker_cooldown:
        Per-endpoint :class:`CircuitBreaker` tuning.
    pipeline_window:
        In-flight request window per endpoint for ``get_many`` /
        ``pipelined_get`` fan-out.
    deadline_ms:
        Default per-request deadline propagated to every shard client
        (0 = none); per-call ``deadline_ms=`` arguments override it.
    hedge_delay:
        Seconds to wait for a primary shard before firing a backup
        request at the next replica (0 = hedging off).  The first reply
        wins; the loser is abandoned.  Set near the fleet's p99 so hedges
        stay rare — hedging trades a little extra load for cutting the
        latency tail of one slow shard.
    retry_budget:
        One token-bucket :class:`~repro.serve.retry.RetryBudget` shared
        by *every* shard client, so total cluster retry volume during a
        brownout is capped at the bucket's refill rate (``None`` creates
        a default shared bucket).
    client_options:
        Extra keyword arguments for every underlying :class:`RlzClient`
        (``timeout``, ``retries``, ``deadline_ms``, ...).
    """

    def __init__(
        self,
        endpoints: Sequence[Union[str, Tuple[str, int]]],
        archive: str = "",
        virtual_nodes: int = 64,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 1.0,
        pipeline_window: int = 32,
        deadline_ms: int = 0,
        hedge_delay: float = 0.0,
        retry_budget: Optional[RetryBudget] = None,
        **client_options,
    ) -> None:
        if hedge_delay < 0:
            raise ConfigurationError("hedge_delay must be non-negative")
        labels = [self._normalize(endpoint) for endpoint in endpoints]
        self._shard_map = ShardMap(labels, virtual_nodes=virtual_nodes)
        self._archive = archive
        self._pipeline_window = pipeline_window
        self._hedge_delay = hedge_delay
        self._budget = retry_budget if retry_budget is not None else RetryBudget()
        client_options.setdefault("deadline_ms", deadline_ms)
        client_options.setdefault("retry_budget", self._budget)
        self._client_options = client_options
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown = breaker_cooldown
        self._clients: Dict[str, RlzClient] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        for label in labels:
            self._add_endpoint(label)
        self._closed = False
        self._doc_ids: Optional[List[int]] = None
        self._failovers = 0
        self._hedges = 0
        self._hedge_wins = 0
        self._epoch_refreshes = 0
        self._wrong_shard_retries = 0
        self._bootstrapped = False
        self._stats_cache: "OrderedDict[str, Tuple[int, int, Dict[str, int]]]" = (
            OrderedDict()
        )
        self._stats_cache_hits = 0
        self._stats_cache_misses = 0
        self._lock = threading.Lock()

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
        """Create the client + breaker for a (possibly new) endpoint label."""
        if label in self._clients:
            return
        host, _, port_text = ShardMap.transport(label).rpartition(":")
        self._clients[label] = RlzClient(
            host, int(port_text), archive=self._archive, **self._client_options
        )
        self._breakers[label] = CircuitBreaker(
            self._breaker_threshold, self._breaker_cooldown
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
    def hedges(self) -> int:
        """How many backup requests hedged ``get`` has fired."""
        return self._hedges

    @property
    def hedge_wins(self) -> int:
        """How many hedged ``get``\\ s the backup leg won."""
        return self._hedge_wins

    @property
    def retry_budget(self) -> RetryBudget:
        """The token bucket shared by every shard client's retries."""
        return self._budget

    def breaker(self, endpoint: str) -> CircuitBreaker:
        """The circuit breaker guarding ``endpoint``."""
        return self._breakers[endpoint]

    # ------------------------------------------------------------------
    # Shard-map epochs (partitioned fleets)
    # ------------------------------------------------------------------
    def _resolve_wire_labels(self, labels: Sequence[str]) -> Optional[List[str]]:
        """Attach transports to ring-id-only labels from a wire shard map.

        Servers whose map still comes from the build manifest announce
        plain ring ids ("shard0"); this client already knows where those
        shards live, so the transports are grafted from its own endpoint
        table.  A ring id with no known transport makes the whole map
        unusable (``None``) — adopting it would strand an arc.
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
        with self._lock:
            if epoch <= self._shard_map.epoch:
                return False
            for label in resolved:
                self._add_endpoint(label)
            self._shard_map = ShardMap(
                resolved, virtual_nodes=virtual_nodes, epoch=epoch
            )
            self._epoch_refreshes += 1
            # A new epoch moves documents between shards: per-shard corpus
            # statistics summed under the old placement are no longer the
            # global truth.
            self._stats_cache.clear()
            return True

    def refresh_shard_map(self, prefer: Optional[str] = None) -> bool:
        """Pull the shard map from the fleet; adopt it if its epoch is newer.

        Queries ``prefer`` first (the endpoint that just refused a request
        has the freshest view), then the rest of the fleet, and stops at
        the first answer that advances the epoch.  Returns whether a newer
        map was adopted.  Unreachable endpoints are skipped — refreshing
        must never be harder than the read it is trying to save.
        """
        self._ensure_open()
        ordering = [prefer] if prefer in self._clients else []
        ordering += [label for label in self.endpoints if label not in ordering]
        ordering += [label for label in self._clients if label not in ordering]
        for label in ordering:
            try:
                epoch, labels, virtual_nodes = self._clients[label].shard_map()
            except _FAILOVER_ERRORS + (ProtocolError,):
                continue
            if self._adopt(epoch, labels, virtual_nodes):
                return True
        return False

    def _maybe_bootstrap(self) -> None:
        """One-time lazy shard-map bootstrap from any reachable endpoint.

        Partitioned servers announce an epoch ≥ 1; replica servers answer
        epoch 0 and the static map stands.  An entirely unreachable fleet
        leaves the static map in place too — bootstrap is an upgrade,
        never a precondition.
        """
        if self._bootstrapped:
            return
        self._bootstrapped = True
        try:
            self.refresh_shard_map()
        except StoreClosedError:
            raise
        except Exception:
            pass

    def _retry_wrong_shard(self, call: Callable[[], object]):
        """Run ``call``; on :class:`WrongShardError` refresh the map and
        retry against the new owner, spending the shared retry budget.

        Bounded: each retry must either follow an adopted newer epoch or
        spend a budget token; when neither is possible the error stands.
        """
        attempts = 0
        while True:
            try:
                return call()
            except WrongShardError as exc:
                attempts += 1
                refreshed = self.refresh_shard_map()
                if attempts > max(2, len(self.endpoints)) or not self._budget.spend():
                    raise
                if not refreshed and attempts > 1:
                    raise
                with self._lock:
                    self._wrong_shard_retries += 1
                del exc

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreClosedError("cluster client is closed")

    def _candidates(self, doc_id: int) -> List[str]:
        """The ring order for ``doc_id`` with tripped endpoints demoted.

        Endpoints whose breaker is open go to the back rather than being
        dropped: if *every* breaker is open the request still tries them
        (an all-open cluster should fail with the real connection error,
        not an artificial one).
        """
        route = self._shard_map.route(doc_id)
        allowed = [label for label in route if self._breakers[label].allow()]
        blocked = [label for label in route if label not in allowed]
        return allowed + blocked

    def _with_failover(self, doc_id: int, call: Callable[[RlzClient], object]):
        """Run ``call`` against the ring order, recording breaker outcomes.

        Connection-level failures trip the breaker; a sustained ``R_BUSY``
        (:class:`~repro.errors.ServerBusyError`) re-routes *without*
        tripping it — the endpoint is alive, just saturated, and should
        come straight back into rotation.  Endpoints whose breaker
        refuses admission (open, or half-open with the probe already
        claimed) are skipped in the first pass; if *nothing* admitted the
        request, a forced second pass tries them anyway so an all-open
        cluster fails with the real connection error.
        """
        self._ensure_open()
        last_error: Optional[BaseException] = None
        candidates = self._candidates(doc_id)
        skipped: List[Tuple[int, str]] = []
        for position, label in enumerate(candidates):
            if not self._breakers[label].try_trial():
                skipped.append((position, label))
                continue
            outcome = self._one_attempt(label, position, call)
            if not isinstance(outcome, _Failure):
                return outcome.result
            last_error = outcome.error
        for position, label in skipped:
            outcome = self._one_attempt(label, position, call)
            if not isinstance(outcome, _Failure):
                return outcome.result
            last_error = outcome.error
        assert last_error is not None
        raise last_error

    def _one_attempt(
        self, label: str, position: int, call: Callable[[RlzClient], object]
    ):
        """One failover attempt with breaker bookkeeping; archive errors
        (answers about the data, not the endpoint) propagate."""
        breaker = self._breakers[label]
        try:
            result = call(self._clients[label])
        except ServerBusyError as exc:
            breaker.release_trial()
            return _Failure(exc)
        except _FAILOVER_ERRORS as exc:
            breaker.record_failure()
            return _Failure(exc)
        except BaseException:
            breaker.release_trial()
            raise
        breaker.record_success()
        if position:
            with self._lock:
                self._failovers += 1
        return _Success(result)

    # ------------------------------------------------------------------
    # ArchiveView
    # ------------------------------------------------------------------
    def get(self, doc_id: int, deadline_ms: Optional[int] = None) -> bytes:
        """One document from its primary shard (failover down the ring).

        With ``hedge_delay`` set, a primary that has not answered within
        the delay gets a backup request fired at the next replica and the
        first reply wins — one slow shard then costs roughly the hedge
        delay instead of the shard's full stall.
        """
        self._maybe_bootstrap()
        return self._retry_wrong_shard(lambda: self._get_once(doc_id, deadline_ms))

    def _get_once(self, doc_id: int, deadline_ms: Optional[int]) -> bytes:
        if self._hedge_delay > 0 and len(self.endpoints) > 1:
            return self._hedged_get(doc_id, deadline_ms)
        return self._with_failover(
            doc_id, lambda client: client.get(doc_id, deadline_ms)
        )

    def _hedged_get(self, doc_id: int, deadline_ms: Optional[int]) -> bytes:
        """Primary + delayed-backup race; sequential failover as backstop.

        Each leg runs in its own thread and reports into one queue; the
        first successful reply wins.  The losing leg cannot be cancelled
        mid-socket-read (synchronous sockets), so it is abandoned: its
        thread finishes in the background and its result is discarded —
        bounded by the leg client's own timeout/deadline.
        """
        candidates = self._candidates(doc_id)
        replies: "queue.Queue[Tuple[str, object]]" = queue.Queue()

        def leg(label: str) -> None:
            breaker = self._breakers[label]
            try:
                result = self._clients[label].get(doc_id, deadline_ms)
            except ServerBusyError as exc:
                breaker.release_trial()
                replies.put((label, _Failure(exc)))
            except _FAILOVER_ERRORS as exc:
                breaker.record_failure()
                replies.put((label, _Failure(exc)))
            except BaseException as exc:
                breaker.release_trial()
                replies.put((label, exc))
            else:
                breaker.record_success()
                replies.put((label, _Success(result)))

        def fire(label: str) -> None:
            threading.Thread(
                target=leg, args=(label,), name=f"rlz-hedge-{label}", daemon=True
            ).start()

        primary = candidates[0]
        fire(primary)
        fired = [primary]
        hedged = False
        last_error: Optional[BaseException] = None
        outstanding = 1
        while outstanding:
            try:
                timeout = None if hedged else self._hedge_delay
                label, outcome = replies.get(timeout=timeout)
            except queue.Empty:
                # The primary is slow: fire the backup leg.
                hedged = True
                with self._lock:
                    self._hedges += 1
                backup = next(
                    (c for c in candidates if c not in fired), None
                )
                if backup is None:  # pragma: no cover - len(endpoints) > 1
                    continue
                fire(backup)
                fired.append(backup)
                outstanding += 1
                continue
            outstanding -= 1
            if isinstance(outcome, _Success):
                if label != primary:
                    with self._lock:
                        self._hedge_wins += 1
                        self._failovers += 1
                return outcome.result
            if isinstance(outcome, _Failure):
                last_error = outcome.error
                continue
            raise outcome  # archive-level error: an answer, not a failure
        # Both legs failed: walk the rest of the ring sequentially.
        for position, label in enumerate(candidates):
            if label in fired:
                continue
            outcome = self._one_attempt(
                label, position, lambda client: client.get(doc_id, deadline_ms)
            )
            if not isinstance(outcome, _Failure):
                return outcome.result
            last_error = outcome.error
        assert last_error is not None
        raise last_error

    def get_many(
        self,
        doc_ids: Sequence[int],
        window: Optional[int] = None,
        deadline_ms: Optional[int] = None,
    ) -> List[bytes]:
        """Fan out by shard, fan in preserving input order exactly.

        Each endpoint receives one pipelined batch of the documents it
        owns (its requests overlap on one connection); batches run
        concurrently across endpoints.  A shard that fails mid-batch has
        its still-missing documents re-routed to the next endpoints on
        their ring order, so one dead server degrades throughput, not
        results.
        """
        self._ensure_open()
        self._maybe_bootstrap()
        pipeline_window = window if window is not None else self._pipeline_window
        doc_ids = list(doc_ids)
        if not doc_ids:
            return []
        results: List = [None] * len(doc_ids)
        done = [False] * len(doc_ids)
        remaining = list(range(len(doc_ids)))
        #: Endpoints that failed *within this call*: re-routed around
        #: immediately, independent of the breaker threshold (the breaker
        #: shields future calls; the dead-set shields this one).
        dead: set = set()
        wrong_refreshes = 0
        while remaining:
            groups: Dict[str, List[int]] = {}
            for index in remaining:
                for label in self._candidates(doc_ids[index]):
                    if label not in dead:
                        groups.setdefault(label, []).append(index)
                        break
            if not groups:  # pragma: no cover - dead-set exhaustion raises below
                raise ConnectionError("no cluster endpoint is reachable")
            failures: Dict[str, BaseException] = {}
            #: Endpoints that refused a doc id with R_WRONG_SHARD: the
            #: endpoint is healthy and the *map* is stale, so these feed a
            #: shard-map refresh, never the dead-set or the breaker.
            wrong_shard: Dict[str, WrongShardError] = {}
            hard_errors: List[BaseException] = []

            def fetch(label: str, indices: List[int]) -> None:
                client = self._clients[label]
                breaker = self._breakers[label]
                try:
                    documents = client.pipelined_get(
                        [doc_ids[index] for index in indices],
                        window=pipeline_window,
                        deadline_ms=deadline_ms,
                    )
                except ServerBusyError as exc:
                    # The endpoint is alive but saturated: re-route this
                    # batch to a replica without tripping the breaker.
                    failures[label] = exc
                    return
                except WrongShardError as exc:
                    breaker.record_success()
                    wrong_shard[label] = exc
                    return
                except _FAILOVER_ERRORS as exc:
                    breaker.record_failure()
                    failures[label] = exc
                    return
                except BaseException as exc:
                    # Archive/protocol errors are answers about the data,
                    # not the endpoint: surface them to the caller.
                    hard_errors.append(exc)
                    return
                breaker.record_success()
                for index, document in zip(indices, documents):
                    results[index] = document
                    done[index] = True

            if len(groups) == 1:
                label, indices = next(iter(groups.items()))
                fetch(label, indices)
            else:
                threads = [
                    threading.Thread(
                        target=fetch, args=(label, indices), name=f"rlz-fanout-{label}"
                    )
                    for label, indices in groups.items()
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            if hard_errors:
                raise hard_errors[0]
            still = [index for index in remaining if not done[index]]
            if still and wrong_shard:
                # A stale map sent work to a shard that no longer owns it:
                # adopt the fleet's newer map and re-group what's left.
                wrong_refreshes += 1
                exhausted = wrong_refreshes > max(2, len(self.endpoints))
                if exhausted or not self._budget.spend():
                    raise next(iter(wrong_shard.values()))
                if not self.refresh_shard_map(prefer=next(iter(wrong_shard))):
                    raise next(iter(wrong_shard.values()))
                with self._lock:
                    self._wrong_shard_retries += 1
                remaining = still
                continue
            if still:
                if not failures:
                    raise ProtocolError("cluster get_many made no progress")
                dead.update(failures)
                if len(dead) >= len(self.endpoints):
                    raise next(iter(failures.values()))
                with self._lock:
                    self._failovers += len(still)
            remaining = still
        return results

    def pipelined_get(
        self,
        doc_ids: Sequence[int],
        window: Optional[int] = None,
        deadline_ms: Optional[int] = None,
    ) -> List[bytes]:
        """Alias of :meth:`get_many` (the cluster always pipelines);
        ``window`` overrides the per-shard in-flight window for this call."""
        return self.get_many(doc_ids, window=window, deadline_ms=deadline_ms)

    def iter_documents(self) -> Iterator[Tuple[int, bytes]]:
        """Stream every document in store order via per-shard SCANs.

        Each endpoint scans only the documents it owns (one chunked SCAN
        stream per shard, store-order within the shard), and the streams
        merge back into exact store order.  A shard that dies mid-scan
        has its remaining documents re-scanned from the next endpoint on
        their ring order.

        On a partitioned fleet a mid-scan rebalance surfaces as a
        ``R_WRONG_SHARD`` refusal: the scan then refreshes the shard map
        and re-plans the remaining documents against the new owners, so
        the stream stays in exact store order across the epoch bump.
        """
        self._ensure_open()
        self._maybe_bootstrap()
        order = self.doc_ids()
        offset = 0
        replans = 0
        while offset < len(order):
            stream = self._iter_from(order[offset:])
            try:
                for doc_id, document in stream:
                    yield doc_id, document
                    offset += 1
                return
            except WrongShardError:
                # The plan was drawn from a stale map: adopt the newer
                # epoch and re-plan everything not yet yielded.
                replans += 1
                if replans > max(2, len(self.endpoints)):
                    raise
                if not self.refresh_shard_map():
                    raise
                with self._lock:
                    self._wrong_shard_retries += 1
            finally:
                stream.close()

    def _iter_from(self, order: List[int]) -> Iterator[Tuple[int, bytes]]:
        """One scan-merge plan over ``order`` under the current shard map."""
        owners = {doc_id: self._candidates(doc_id)[0] for doc_id in order}
        per_shard: Dict[str, List[int]] = {}
        for doc_id in order:
            per_shard.setdefault(owners[doc_id], []).append(doc_id)
        streams: Dict[str, Iterator[Tuple[int, bytes]]] = {
            label: self._clients[label].scan(ids)
            for label, ids in per_shard.items()
        }
        consumed: Dict[str, int] = {label: 0 for label in per_shard}
        try:
            for doc_id in order:
                label = owners[doc_id]
                while True:
                    try:
                        got_id, document = next(streams[label])
                    except ServerBusyError:
                        # Saturated, not dead: re-route the tail, breaker intact.
                        label = self._rescan(
                            per_shard, consumed, streams, owners, label, doc_id
                        )
                        continue
                    except _FAILOVER_ERRORS:
                        self._breakers[label].record_failure()
                        label = self._rescan(
                            per_shard, consumed, streams, owners, label, doc_id
                        )
                        continue
                    except StopIteration:
                        raise ProtocolError(
                            f"shard {label} ended its scan early (at doc {doc_id})"
                        ) from None
                    consumed[label] += 1
                    if got_id != doc_id:
                        raise ProtocolError(
                            f"scan order broke: expected doc {doc_id}, got {got_id}"
                        )
                    yield doc_id, document
                    break
        finally:
            for stream in streams.values():
                close = getattr(stream, "close", None)
                if close is not None:
                    close()

    def _rescan(
        self,
        per_shard: Dict[str, List[int]],
        consumed: Dict[str, int],
        streams: Dict[str, Iterator[Tuple[int, bytes]]],
        owners: Dict[int, str],
        dead_label: str,
        from_doc: int,
    ) -> str:
        """Re-route a dead shard's unserved scan tail to a live endpoint."""
        tail = per_shard[dead_label][consumed[dead_label] :]
        assert tail and tail[0] == from_doc
        # A merged label chains every endpoint that already failed for
        # this tail ("E3#E2#E1"): never route back to one of those.
        exhausted = set(dead_label.split("#"))
        replacement = None
        for label in self._candidates(from_doc):
            if label not in exhausted:
                replacement = label
                break
        if replacement is None:
            raise ConnectionError(
                f"shard {dead_label} died mid-scan and no replica is available"
            )
        with self._lock:
            self._failovers += 1
        # The replacement endpoint scans the tail as its own fresh stream;
        # its previously-assigned documents are unaffected (separate
        # stream bookkeeping under a merged label).
        merged_label = f"{replacement}#{dead_label}"
        per_shard[merged_label] = tail
        consumed[merged_label] = 0
        streams[merged_label] = self._clients[replacement].scan(tail)
        for doc_id in tail:
            owners[doc_id] = merged_label
        # Breaker bookkeeping for the merged label routes to the live
        # endpoint's breaker.
        self._breakers.setdefault(merged_label, self._breakers[replacement])
        return merged_label

    def doc_ids(self) -> List[int]:
        """Store-order doc ids (from the first healthy endpoint; cached).

        Partitioned servers answer DOC_IDS with the *global* collection
        order recorded in their manifest (identical on every shard and
        invariant across rebalances), so one endpoint's answer is the
        whole fleet's answer in both deployments.
        """
        self._ensure_open()
        self._maybe_bootstrap()
        if self._doc_ids is None:
            last_error: Optional[BaseException] = None
            candidates = [
                label
                for label in self.endpoints
                if self._breakers[label].allow()
            ] or self.endpoints
            for label in candidates:
                breaker = self._breakers[label]
                try:
                    self._doc_ids = self._clients[label].doc_ids()
                except _FAILOVER_ERRORS as exc:
                    breaker.record_failure()
                    last_error = exc
                    continue
                breaker.record_success()
                break
            if self._doc_ids is None:
                assert last_error is not None
                raise last_error
        return list(self._doc_ids)

    def __len__(self) -> int:
        return len(self.doc_ids())

    def stats(self) -> Dict[str, float]:
        """Cluster counters plus every reachable endpoint's snapshot.

        Per-endpoint keys are prefixed ``shard<i>_``; endpoints that are
        down contribute ``shard<i>_reachable = 0`` instead of failing the
        whole snapshot.
        """
        self._ensure_open()
        snapshot: Dict[str, float] = {
            "cluster_endpoints": len(self.endpoints),
            "cluster_failovers": self._failovers,
            "cluster_virtual_nodes": self._shard_map.virtual_nodes,
            "cluster_hedges": self._hedges,
            "cluster_hedge_wins": self._hedge_wins,
            "cluster_retry_budget_spent": self._budget.spent,
            "cluster_retry_budget_denied": self._budget.denied,
            "cluster_epoch": self._shard_map.epoch,
            "cluster_epoch_refreshes": self._epoch_refreshes,
            "cluster_wrong_shard_retries": self._wrong_shard_retries,
            "cluster_search_stats_cache_hits": self._stats_cache_hits,
            "cluster_search_stats_cache_misses": self._stats_cache_misses,
        }
        for index, label in enumerate(self.endpoints):
            breaker = self._breakers[label]
            snapshot[f"shard{index}_breaker_open"] = int(breaker.state != "closed")
            snapshot[f"shard{index}_breaker_trips"] = breaker.trips
            snapshot[f"shard{index}_busy_hints"] = self._clients[label].busy_hints
            try:
                shard_stats = self._clients[label].stats()
            except _FAILOVER_ERRORS:
                snapshot[f"shard{index}_reachable"] = 0
                continue
            snapshot[f"shard{index}_reachable"] = 1
            for key, value in shard_stats.items():
                snapshot[f"shard{index}_{key}"] = value
        return snapshot

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(
        self,
        query: str,
        top_k: int = 10,
        snippet_chars: int = 0,
        deadline_ms: Optional[int] = None,
    ) -> List[SearchHit]:
        """Exact global BM25 top-k across every shard.

        Two concurrent fan-out legs: first every shard reports its corpus
        statistics for the query's terms (document count, total document
        length, per-term document frequency), which sum to the *global*
        statistics because a partitioned fleet stores each document on
        exactly one shard.  Then every shard ranks its own documents with
        those global statistics and returns its local top-k; the union
        necessarily contains the global top-k, so merging by
        ``(-score, doc_id)`` and truncating reproduces a single-index run
        exactly — same ids, same scores, same order.

        Unlike ``get``, search has no failover: every shard holds results
        no other shard can produce, so a shard that cannot answer fails
        the query rather than silently dropping its documents.
        """
        self._ensure_open()
        self._maybe_bootstrap()
        global_stats = self._global_search_stats(query, deadline_ms)
        per_shard = self._search_all(
            lambda client: client.search(
                query,
                top_k=top_k,
                snippet_chars=snippet_chars,
                global_stats=global_stats,
                deadline_ms=deadline_ms,
            )
        )
        merged = [hit for hits in per_shard.values() for hit in hits]
        merged.sort(key=lambda hit: (-hit.score, hit.doc_id))
        return merged[:top_k]

    #: Distinct queries whose global statistics are kept per epoch.
    _STATS_CACHE_CAP = 256

    def _global_search_stats(
        self, query: str, deadline_ms: Optional[int]
    ) -> Tuple[int, int, Dict[str, int]]:
        """Global corpus statistics for ``query``, cached per shard-map epoch.

        The stats leg of the search fan-out asks every shard for its
        document count, total length and per-term document frequencies.
        Those sums depend only on what each shard stores, which changes
        placement only when a newer shard map is adopted — so the answer
        for a query is reused until :meth:`_adopt` installs a new epoch
        and clears the cache.  A bounded LRU keeps memory flat under many
        distinct queries; repeated queries (the common interactive case)
        pay one fan-out per epoch instead of one per call.
        """
        with self._lock:
            cached = self._stats_cache.get(query)
            if cached is not None:
                self._stats_cache.move_to_end(query)
                self._stats_cache_hits += 1
                return cached
        stats = self._search_all(
            lambda client: client.search_stats(query, deadline_ms=deadline_ms)
        )
        num_documents = sum(shard[0] for shard in stats.values())
        total_length = sum(shard[1] for shard in stats.values())
        frequencies: Dict[str, int] = {}
        for _, _, shard_df in stats.values():
            for term, df in shard_df.items():
                frequencies[term] = frequencies.get(term, 0) + df
        global_stats = (num_documents, total_length, frequencies)
        with self._lock:
            self._stats_cache_misses += 1
            self._stats_cache[query] = global_stats
            self._stats_cache.move_to_end(query)
            while len(self._stats_cache) > self._STATS_CACHE_CAP:
                self._stats_cache.popitem(last=False)
        return global_stats

    def _search_all(self, call: Callable[[RlzClient], object]) -> Dict[str, object]:
        """Run ``call`` on every endpoint concurrently; all must answer.

        Breakers record connection outcomes as usual, but open breakers
        are not skipped — correctness needs every shard, so the request
        is the probe.  The first failure (in endpoint order, archive
        errors preferred over connection errors as the more specific
        diagnosis) propagates to the caller.
        """
        labels = self.endpoints
        results: Dict[str, object] = {}
        connection_errors: Dict[str, BaseException] = {}
        archive_errors: Dict[str, BaseException] = {}

        def run(label: str) -> None:
            breaker = self._breakers[label]
            try:
                results[label] = call(self._clients[label])
            except _FAILOVER_ERRORS as exc:
                breaker.record_failure()
                connection_errors[label] = exc
            except BaseException as exc:
                archive_errors[label] = exc
            else:
                breaker.record_success()

        if len(labels) == 1:
            run(labels[0])
        else:
            threads = [
                threading.Thread(
                    target=run, args=(label,), name=f"rlz-search-{label}"
                )
                for label in labels
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for label in labels:
            if label in archive_errors:
                raise archive_errors[label]
        for label in labels:
            if label in connection_errors:
                raise connection_errors[label]
        return results

    def ping(self) -> float:
        """Round-trip time to the slowest reachable endpoint."""
        self._ensure_open()
        times = []
        for label in self.endpoints:
            try:
                times.append(self._clients[label].ping())
            except _FAILOVER_ERRORS:
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

    def close(self) -> None:
        """Close every per-endpoint client (idempotent)."""
        self._closed = True
        for client in self._clients.values():
            client.close()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
