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
* in a replica fleet every endpoint serves every document: the shard
  map spreads load and concentrates each document's cache hits on its
  primary, and the remaining ring order is the **failover path**;
* a per-endpoint :class:`CircuitBreaker` trips after consecutive
  connection failures and re-routes around the dead endpoint for a
  cooldown, so a dead shard costs one failed dial per cooldown instead
  of hammering retries on every request; a saturated endpoint
  (sustained ``R_BUSY``) is re-routed around without tripping it;
* ``get_many`` fans out one *pipelined* batch per endpoint (concurrent
  threads), fans the replies back in, and preserves input order exactly —
  duplicates included; documents of a shard that dies mid-batch are
  re-routed to the next endpoint on their ring order and the result is
  byte-identical to a single-archive read;
* ``iter_documents`` scans every shard with the chunked ``SCAN`` opcode
  (each endpoint streams only the documents it owns, in store order) and
  merges the streams back into exact store order.

Every one of those decisions lives once, in :class:`ClusterPolicy`;
:class:`ClusterClient` (threads over :class:`RlzClient`\\ s) and
:class:`AsyncClusterClient` (``asyncio.gather`` over one multiplexed
:class:`AsyncRlzClient` connection per shard) are its two drivers.  Both
implement the :class:`repro.api.ArchiveView` contract, so everything
written against the facade — ``repro get``, the conformance battery, the
benchmarks — runs unchanged over a whole fleet.
"""

from __future__ import annotations

import asyncio
import queue
import threading
import time
from bisect import bisect_left
from collections import OrderedDict
from functools import partial
from operator import methodcaller
from typing import (
    Any,
    Callable,
    Container,
    Dict,
    Generator,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import (
    ConfigurationError,
    ProtocolError,
    ServerBusyError,
    StoreClosedError,
    WrongShardError,
)
from .client import CONNECTION_ERRORS, AsyncRlzClient, RlzClient
from .protocol import SearchHit
from .retry import RetryBudget

__all__ = [
    "AsyncClusterClient",
    "CircuitBreaker",
    "ClusterClient",
    "ClusterPolicy",
    "ShardMap",
]

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
        return self.state != "open"

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


#: One fan-out step of a policy flow: ``label -> job(client)``.
Jobs = Dict[str, Callable[[Any], Any]]
#: A cluster operation as a generator: it yields :data:`Jobs`, receives
#: ``label -> outcome`` (a job's result or the exception it raised).
Flow = Generator[Jobs, Dict[str, Any], Any]


class ClusterPolicy:
    """Every decision of a cluster client, with no I/O.

    It holds the :class:`ShardMap` and one :class:`CircuitBreaker` per
    endpoint, and writes each cluster operation once, as a :data:`Flow`.
    A driver runs a flow's fan-out steps on its endpoint clients:
    :class:`ClusterClient` with threads over ``RlzClient``\\ s,
    :class:`AsyncClusterClient` with ``asyncio.gather`` over
    ``AsyncRlzClient``\\ s.  The two client classes share method names
    and signatures, so one job serves both (a sync job returns the
    result, an async one the coroutine).
    """

    #: Distinct queries whose global statistics are kept per epoch.
    _STATS_CACHE_CAP = 256
    #: The endpoint client class jobs run on (RlzClient or AsyncRlzClient).
    _client_class: type
    #: Seconds a tripped breaker stays open.
    _breaker_cooldown = 1.0

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
        self._clients: Dict[str, Any] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        for label in labels:
            self._add_endpoint(label)
        self._closed = False
        self._doc_ids: Optional[List[int]] = None
        self._bootstrapped = False
        self._failovers = 0
        self._hedges = 0
        self._hedge_wins = 0
        self._epoch_refreshes = 0
        self._wrong_shard_retries = 0
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
        self._clients[label] = self._client_class(
            host, int(port_text), archive=self._archive, **self._client_options
        )
        self._breakers[label] = CircuitBreaker(cooldown=self._breaker_cooldown)

    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreClosedError("cluster client is closed")

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

    @property
    def closed(self) -> bool:
        return self._closed

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

    def _refresh_flow(self, prefer: Optional[str] = None) -> Flow:
        """``refresh_shard_map``: ``prefer``, then the current map's
        endpoints, then every endpoint ever known, until one's map adopts."""
        self._ensure_open()
        ordering = [prefer] if prefer in self._clients else []
        ordering += [label for label in self.endpoints if label not in ordering]
        ordering += [label for label in self._clients if label not in ordering]
        for label in ordering:
            outcome = (yield {label: methodcaller("shard_map")})[label]
            if isinstance(outcome, CONNECTION_ERRORS + (ProtocolError,)):
                continue
            if isinstance(outcome, BaseException):
                raise outcome
            if self._adopt(*outcome):
                return True
        return False

    def _bootstrap_flow(self) -> Flow:
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
            yield from self._refresh_flow()
        except StoreClosedError:
            raise
        except Exception:
            pass

    def _retry_wrong_shard(self, attempts: int, refreshed: bool) -> bool:
        """Whether the ``attempts``-th wrong-shard refusal of one call is
        retried.  Bounded: after the first, a retry must follow a
        ``refreshed`` (newer) map; each spends a shared budget token; at
        most ``max(2, endpoints)`` attempts."""
        if attempts > max(2, len(self.endpoints)) or (attempts > 1 and not refreshed):
            return False
        if not self._budget.spend():
            return False
        with self._lock:
            self._wrong_shard_retries += 1
        return True

    # ------------------------------------------------------------------
    # Routing and breaker bookkeeping
    # ------------------------------------------------------------------
    def _ordered(self, route: Sequence[str]) -> List[str]:
        """``route`` with tripped endpoints demoted to the back.

        They are not dropped: if *every* breaker is open the request
        still tries them (an all-open cluster should fail with the real
        connection error, not an artificial one).
        """
        allowed = [label for label in route if self._breakers[label].allow()]
        return allowed + [label for label in route if label not in allowed]

    def _candidates(self, doc_id: int) -> List[str]:
        """The ring order for ``doc_id`` with tripped endpoints demoted."""
        return self._ordered(self._shard_map.route(doc_id))

    def _live_owner(self, doc_id: int, dead: Container[str]) -> str:
        """The first candidate for ``doc_id`` not ``dead`` in this call."""
        for label in self._candidates(doc_id):
            if label not in dead:
                return label
        raise ConnectionError("no cluster endpoint is reachable")

    def _walk(self, route: Sequence[str]) -> Iterator[Tuple[int, str]]:
        """The failover walk over ``route``: ``(position, label)`` pairs.

        Endpoints whose breaker admits the request come first, those
        refusing admission last.  Lazy: a half-open breaker's one probe
        is claimed only when the walk reaches it.
        """
        skipped: List[Tuple[int, str]] = []
        for position, label in enumerate(self._ordered(route)):
            if self._breakers[label].try_trial():
                yield position, label
            else:
                skipped.append((position, label))
        yield from skipped

    def _settle(
        self, label: str, error: Optional[BaseException] = None, failover: bool = False
    ) -> bool:
        """Record one endpoint call's outcome on its breaker; returns
        whether the error means "try another endpoint".

        The one rule for every fan-out site: an answer (or an
        ``R_WRONG_SHARD`` refusal: the endpoint is healthy, the map stale)
        is a success; a sustained ``R_BUSY`` releases the trial (alive,
        just saturated) and fails over; a connection error counts a
        failure and fails over; any other error releases the trial and
        propagates.  A success flagged ``failover`` counts a failover.
        """
        breaker = self._breakers[label]
        if error is None or isinstance(error, WrongShardError):
            breaker.record_success()
            if error is None and failover:
                with self._lock:
                    self._failovers += 1
            return False
        if isinstance(error, CONNECTION_ERRORS):
            breaker.record_failure()
            return True
        breaker.release_trial()
        return isinstance(error, ServerBusyError)

    def _failover_flow(
        self,
        route: Sequence[str],
        job: Callable[[Any], Any],
        error: Optional[BaseException] = None,
    ) -> Flow:
        """Run ``job`` down the failover walk of ``route`` until an
        endpoint answers; the last failover error stands if none does.
        An answer past the route's head, or after an ``error`` the caller
        seeded (from endpoints outside ``route``), counts a failover."""
        self._ensure_open()
        seeded = error is not None
        for position, label in self._walk(route):
            outcome = (yield {label: job})[label]
            if isinstance(outcome, BaseException):
                if not self._settle(label, outcome):
                    raise outcome
                error = outcome
                continue
            self._settle(label, None, seeded or position > 0)
            return outcome
        assert error is not None
        raise error

    def _settle_all(
        self, outcomes: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], Dict[str, BaseException], Dict[str, BaseException]]:
        """Settle every outcome of a fan-out step on its breaker; returns
        the answers, the failover errors and the other errors by label."""
        answers: Dict[str, Any] = {}
        failovers: Dict[str, BaseException] = {}
        errors: Dict[str, BaseException] = {}
        for label, outcome in outcomes.items():
            if not isinstance(outcome, BaseException):
                self._settle(label)
                answers[label] = outcome
            elif self._settle(label, outcome):
                failovers[label] = outcome
            else:
                errors[label] = outcome
        return answers, failovers, errors

    def _all_flow(self, job: Callable[[Any], Any]) -> Flow:
        """``job`` on every endpoint at once; every one must answer (an
        open breaker is not skipped: the request is the probe).  Archive
        errors are raised before connection errors, as the more specific
        diagnosis.  Returns the answers in endpoint order."""
        answers, failovers, errors = self._settle_all(
            (yield {label: job for label in self.endpoints})
        )
        if errors or failovers:
            raise (list(errors.values()) + list(failovers.values()))[0]
        return list(answers.values())

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def _get_flow(self, doc_id: int, deadline_ms: Optional[int]) -> Flow:
        """``get``: one attempt, and on a wrong-shard refusal a map
        refresh and a retry against the new owner."""
        self._ensure_open()
        yield from self._bootstrap_flow()
        refusals = 0
        while True:
            try:
                return (yield from self._get_attempt(doc_id, deadline_ms))
            except WrongShardError:
                refusals += 1
                refreshed = yield from self._refresh_flow()
                if not self._retry_wrong_shard(refusals, refreshed):
                    raise

    def _get_attempt(self, doc_id: int, deadline_ms: Optional[int]) -> Flow:
        """One ``get`` down the document's ring order."""
        return (
            yield from self._failover_flow(
                self._shard_map.route(doc_id),
                lambda client: client.get(doc_id, deadline_ms),
            )
        )

    def _get_many_flow(
        self, doc_ids: Sequence[int], batch: Callable[[Any, List[int]], Any]
    ) -> Flow:
        """``get_many``: rounds of per-endpoint ``batch(client, ids)``.

        Endpoints that fail *within this call* join a dead set and are
        routed around at once, whatever their breaker says (the breaker
        shields future calls; the dead set shields this one).  A
        ``R_WRONG_SHARD`` refusal refreshes the map and re-groups the rest.
        """
        self._ensure_open()
        yield from self._bootstrap_flow()
        doc_ids = list(doc_ids)
        results: List = [None] * len(doc_ids)
        remaining = list(range(len(doc_ids)))
        dead: set = set()
        refusals = 0
        while remaining:
            groups: Dict[str, List[int]] = {}
            for index in remaining:
                owner = self._live_owner(doc_ids[index], dead)
                groups.setdefault(owner, []).append(index)
            outcomes = yield {
                label: partial(batch, ids=[doc_ids[i] for i in indices])
                for label, indices in groups.items()
            }
            answers, failures, refused = self._settle_all(outcomes)
            for error in refused.values():
                if not isinstance(error, WrongShardError):
                    raise error  # an answer about the data, not the endpoint
            for label, documents in answers.items():
                for index, document in zip(groups[label], documents):
                    results[index] = document
            remaining = [index for index in remaining if results[index] is None]
            if remaining and refused:
                label, error = next(iter(refused.items()))
                refusals += 1
                refreshed = yield from self._refresh_flow(label)
                if not self._retry_wrong_shard(refusals, refreshed):
                    raise error
            elif remaining:
                if not failures:
                    raise ProtocolError("cluster get_many made no progress")
                dead.update(failures)
                if len(dead) >= len(self.endpoints):
                    raise next(iter(failures.values()))
                with self._lock:
                    self._failovers += len(remaining)
        return results

    def _doc_ids_flow(self) -> Flow:
        """Store-order doc ids from the first endpoint that answers; cached."""
        self._ensure_open()
        yield from self._bootstrap_flow()
        if self._doc_ids is None:
            self._doc_ids = yield from self._failover_flow(
                self.endpoints, methodcaller("doc_ids")
            )
        return list(self._doc_ids)

    def _search_flow(
        self, query: str, top_k: int, snippet_chars: int, deadline_ms: Optional[int]
    ) -> Flow:
        """``search``: the global-stats leg, then every shard ranks with
        those statistics and the local top-k lists merge by
        ``(-score, doc_id)``."""
        self._ensure_open()
        yield from self._bootstrap_flow()
        global_stats = yield from self._global_stats_flow(query, deadline_ms)
        per_shard = yield from self._all_flow(
            lambda client: client.search(
                query,
                top_k=top_k,
                snippet_chars=snippet_chars,
                global_stats=global_stats,
                deadline_ms=deadline_ms,
            )
        )
        merged = [hit for hits in per_shard for hit in hits]
        merged.sort(key=lambda hit: (-hit.score, hit.doc_id))
        return merged[:top_k]

    def _global_stats_flow(self, query: str, deadline_ms: Optional[int]) -> Flow:
        """Global corpus statistics for ``query``, cached per shard-map epoch.

        The sums change only when a newer map moves documents, so an
        answer is reused until :meth:`_adopt` clears the cache; the LRU
        bound keeps memory flat under many distinct queries.
        """
        with self._lock:
            cached = self._stats_cache.get(query)
            if cached is not None:
                self._stats_cache.move_to_end(query)
                self._stats_cache_hits += 1
                return cached
        per_shard = yield from self._all_flow(
            lambda client: client.search_stats(query, deadline_ms=deadline_ms)
        )
        frequencies: Dict[str, int] = {}
        for _, _, shard_df in per_shard:
            for term, df in shard_df.items():
                frequencies[term] = frequencies.get(term, 0) + df
        global_stats = (
            sum(shard[0] for shard in per_shard),
            sum(shard[1] for shard in per_shard),
            frequencies,
        )
        with self._lock:
            self._stats_cache_misses += 1
            self._stats_cache[query] = global_stats
            self._stats_cache.move_to_end(query)
            while len(self._stats_cache) > self._STATS_CACHE_CAP:
                self._stats_cache.popitem(last=False)
        return global_stats

    def _stats_flow(self) -> Flow:
        """``stats``: cluster counters plus every endpoint's snapshot."""
        self._ensure_open()
        outcomes = yield {label: methodcaller("stats") for label in self.endpoints}
        answers, _, errors = self._settle_all(outcomes)
        if errors:
            raise next(iter(errors.values()))
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
        for index, label in enumerate(outcomes):
            breaker = self._breakers[label]
            snapshot[f"shard{index}_breaker_open"] = int(breaker.state != "closed")
            snapshot[f"shard{index}_breaker_trips"] = breaker.trips
            snapshot[f"shard{index}_busy_hints"] = self._clients[label].busy_hints
            snapshot[f"shard{index}_reachable"] = int(label in answers)
            for key, value in answers.get(label, {}).items():
                snapshot[f"shard{index}_{key}"] = value
        return snapshot

    def _ping_flow(self) -> Flow:
        """``ping``: the round trip of the slowest reachable endpoint."""
        self._ensure_open()
        outcomes = yield {label: methodcaller("ping") for label in self.endpoints}
        answers, _, errors = self._settle_all(outcomes)
        if errors:
            raise next(iter(errors.values()))
        if not answers:
            raise ConnectionError("no cluster endpoint is reachable")
        return max(answers.values())


class ClusterClient(ClusterPolicy):
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
    breaker_cooldown:
        Seconds a tripped per-endpoint :class:`CircuitBreaker` stays open
        (it trips after three consecutive connection failures).
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

    _client_class = RlzClient

    def __init__(
        self,
        endpoints: Sequence[Union[str, Tuple[str, int]]],
        archive: str = "",
        virtual_nodes: int = 64,
        breaker_cooldown: float = 1.0,
        pipeline_window: int = 32,
        deadline_ms: int = 0,
        hedge_delay: float = 0.0,
        retry_budget: Optional[RetryBudget] = None,
        **client_options,
    ) -> None:
        if hedge_delay < 0:
            raise ConfigurationError("hedge_delay must be non-negative")
        self._breaker_cooldown = breaker_cooldown
        super().__init__(
            endpoints,
            archive,
            virtual_nodes,
            deadline_ms,
            retry_budget,
            **client_options,
        )
        self._pipeline_window = pipeline_window
        self._hedge_delay = hedge_delay

    @property
    def hedges(self) -> int:
        """How many backup requests hedged ``get`` has fired."""
        return self._hedges

    @property
    def hedge_wins(self) -> int:
        """How many hedged ``get``\\ s the backup leg won."""
        return self._hedge_wins

    def _drive(self, flow: Flow) -> Any:
        """Run a policy flow, answering each fan-out step in threads."""
        try:
            jobs = next(flow)
            while True:
                jobs = flow.send(self._fan_out(jobs))
        except StopIteration as done:
            return done.value

    def _fan_out(self, jobs: Jobs) -> Dict[str, Any]:
        """Every ``job(client)`` on its endpoint — in threads when there
        is more than one — and each outcome under its label, in order."""
        outcomes: Dict[str, Any] = dict.fromkeys(jobs)

        def run(label: str) -> None:
            try:
                outcomes[label] = jobs[label](self._clients[label])
            except BaseException as exc:  # handed to the flow, which re-raises
                outcomes[label] = exc

        if len(jobs) == 1:
            run(next(iter(jobs)))
            return outcomes
        threads = [
            threading.Thread(target=run, args=(label,), name=f"rlz-fanout-{label}")
            for label in jobs
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return outcomes

    def refresh_shard_map(self, prefer: Optional[str] = None) -> bool:
        """Pull the shard map from the fleet; adopt it if its epoch is newer.

        Queries ``prefer`` first (the endpoint that just refused a request
        has the freshest view), then the rest of the fleet, and stops at
        the first answer that advances the epoch.  Returns whether a newer
        map was adopted.  Unreachable endpoints are skipped — refreshing
        must never be harder than the read it is trying to save.
        """
        return self._drive(self._refresh_flow(prefer))

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
        return self._drive(self._get_flow(doc_id, deadline_ms))

    def _get_attempt(self, doc_id: int, deadline_ms: Optional[int]) -> Flow:
        """One ``get``; hedged when ``hedge_delay`` is set.

        A hedged get races the primary against a delayed backup leg, each
        in its own thread reporting into one queue; the first successful
        reply wins.  The losing leg cannot be cancelled mid-socket-read
        (synchronous sockets), so it is abandoned: its thread finishes in
        the background, bounded by the leg client's own timeout/deadline.
        If both legs fail, the rest of the ring is walked sequentially.
        """
        if self._hedge_delay <= 0 or len(self.endpoints) < 2:
            return (yield from super()._get_attempt(doc_id, deadline_ms))
        candidates = self._candidates(doc_id)
        replies: "queue.Queue[Tuple[str, Any, Optional[bool]]]" = queue.Queue()

        def leg(label: str) -> None:
            try:
                result = self._clients[label].get(doc_id, deadline_ms)
            except BaseException as exc:  # reported to the racing caller
                replies.put((label, exc, self._settle(label, exc)))
            else:
                self._settle(label)
                replies.put((label, result, None))

        def fire(label: str) -> None:
            threading.Thread(
                target=leg, args=(label,), name=f"rlz-hedge-{label}", daemon=True
            ).start()
            fired.append(label)

        fired: List[str] = []
        fire(candidates[0])
        error: Optional[BaseException] = None
        outstanding = 1
        while outstanding:
            try:
                label, outcome, failover = replies.get(
                    timeout=self._hedge_delay if len(fired) == 1 else None
                )
            except queue.Empty:
                # The primary is slow: fire the backup leg.
                with self._lock:
                    self._hedges += 1
                fire(candidates[1])
                outstanding += 1
                continue
            outstanding -= 1
            if failover is None:
                if label != candidates[0]:
                    with self._lock:
                        self._hedge_wins += 1
                        self._failovers += 1
                return outcome
            if not failover:
                raise outcome  # archive-level error: an answer, not a failure
            error = outcome
        rest = [label for label in self._shard_map.route(doc_id) if label not in fired]
        return (
            yield from self._failover_flow(
                rest, lambda client: client.get(doc_id, deadline_ms), error=error
            )
        )

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
        window = window if window is not None else self._pipeline_window
        return self._drive(
            self._get_many_flow(
                doc_ids,
                lambda client, ids: client.pipelined_get(
                    ids, window=window, deadline_ms=deadline_ms
                ),
            )
        )

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
        merge back into exact store order.  A shard that fails mid-scan
        is left out for the rest of the call and everything not yet
        yielded is re-planned, so its documents are re-scanned from the
        next endpoint on their ring order.

        On a partitioned fleet a mid-scan rebalance surfaces as a
        ``R_WRONG_SHARD`` refusal: the scan then refreshes the shard map
        and re-plans the remaining documents against the new owners, so
        the stream stays in exact store order across the epoch bump.
        """
        order = self.doc_ids()
        offset = refusals = 0
        dead: set = set()
        while offset < len(order):
            owners: Dict[int, str] = {}
            per_shard: Dict[str, List[int]] = {}
            for doc_id in order[offset:]:
                owners[doc_id] = owner = self._live_owner(doc_id, dead)
                per_shard.setdefault(owner, []).append(doc_id)
            streams = {
                label: self._clients[label].scan(ids)
                for label, ids in per_shard.items()
            }
            try:
                for doc_id in order[offset:]:
                    label = owners[doc_id]
                    try:
                        got_id, document = next(streams[label])
                    except StopIteration:
                        raise ProtocolError(
                            f"shard {label} ended its scan early (at doc {doc_id})"
                        ) from None
                    except BaseException as exc:
                        # A failed shard (not a refusal) is left out; re-plan the rest.
                        if not self._settle(label, exc):
                            raise
                        dead.add(label)
                        if dead >= set(self.endpoints):
                            raise
                        with self._lock:
                            self._failovers += 1
                        break
                    if got_id != doc_id:
                        raise ProtocolError(
                            f"scan order broke: expected doc {doc_id}, got {got_id}"
                        )
                    yield doc_id, document
                    offset += 1
                else:
                    return
            except WrongShardError:
                # The plan was drawn from a stale map: adopt the newer
                # epoch and re-plan everything not yet yielded.
                refusals += 1
                if not self._retry_wrong_shard(refusals, self.refresh_shard_map()):
                    raise
            finally:
                for stream in streams.values():
                    stream.close()

    def doc_ids(self) -> List[int]:
        """Store-order doc ids (from the first healthy endpoint; cached).

        Partitioned servers answer DOC_IDS with the *global* collection
        order recorded in their manifest (identical on every shard and
        invariant across rebalances), so one endpoint's answer is the
        whole fleet's answer in both deployments.
        """
        return self._drive(self._doc_ids_flow())

    def __len__(self) -> int:
        return len(self.doc_ids())

    def stats(self) -> Dict[str, float]:
        """Cluster counters plus every reachable endpoint's snapshot.

        Per-endpoint keys are prefixed ``shard<i>_``; endpoints that are
        down contribute ``shard<i>_reachable = 0`` instead of failing the
        whole snapshot.
        """
        return self._drive(self._stats_flow())

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
        return self._drive(self._search_flow(query, top_k, snippet_chars, deadline_ms))

    def ping(self) -> float:
        """Round-trip time to the slowest reachable endpoint."""
        return self._drive(self._ping_flow())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every per-endpoint client (idempotent)."""
        self._closed = True
        for client in self._clients.values():
            client.close()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class AsyncClusterClient(ClusterPolicy):
    """One async :class:`~repro.api.ArchiveView` over N server endpoints.

    The asyncio driver of the same policy as :class:`ClusterClient`; the
    concurrency rides each shard's *one* multiplexed connection.  Labels
    are ``host:port`` for replica fleets (every endpoint serves everything)
    or ``ringid@host:port`` for partitioned fleets (the ring id is what
    placement hashes; the transport can move without remapping).
    """

    _client_class = AsyncRlzClient

    async def _drive(self, flow: Flow) -> Any:
        """Run a policy flow, answering each fan-out step on the loop."""
        try:
            jobs = next(flow)
            while True:
                jobs = flow.send(await self._fan_out(jobs))
        except StopIteration as done:
            return done.value

    async def _fan_out(self, jobs: Jobs) -> Dict[str, Any]:
        """Every ``job(client)`` concurrently; each outcome (result or
        exception) under its label, in job order."""
        if len(jobs) == 1:
            # The common single-endpoint step: no task per job.
            ((label, job),) = jobs.items()
            try:
                return {label: await job(self._clients[label])}
            except BaseException as exc:  # handed to the flow, which re-raises
                return {label: exc}
        outcomes = await asyncio.gather(
            *(job(self._clients[label]) for label, job in jobs.items()),
            return_exceptions=True,
        )
        return dict(zip(jobs, outcomes))

    async def refresh_shard_map(self, prefer: Optional[str] = None) -> bool:
        """Pull the shard map from the fleet; adopt it if its epoch is newer."""
        return await self._drive(self._refresh_flow(prefer))

    # ------------------------------------------------------------------
    # AsyncArchiveView
    # ------------------------------------------------------------------
    async def get(self, doc_id: int, deadline_ms: Optional[int] = None) -> bytes:
        """One decoded document from the shard that owns it."""
        return await self._drive(self._get_flow(doc_id, deadline_ms))

    async def get_many(
        self, doc_ids: Sequence[int], deadline_ms: Optional[int] = None
    ) -> List[bytes]:
        """Batch retrieval fanned out per shard, request order preserved.

        Each endpoint gets one batched ``GET_MANY`` of the documents it
        owns; a shard that fails has its documents re-routed down their
        ring order, exactly as :meth:`ClusterClient.get_many` does.
        """
        return await self._drive(
            self._get_many_flow(
                doc_ids,
                lambda client, ids: client.get_many(ids, deadline_ms=deadline_ms),
            )
        )

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
        return await self._drive(self._doc_ids_flow())

    async def stats(self) -> Dict[str, float]:
        """Cluster counters plus every reachable endpoint's snapshot."""
        return await self._drive(self._stats_flow())

    async def search(
        self,
        query: str,
        top_k: int = 10,
        snippet_chars: int = 0,
        deadline_ms: Optional[int] = None,
    ) -> List[SearchHit]:
        """Exact global BM25 top-k across every shard.

        The coroutine mirror of :meth:`ClusterClient.search`: one
        ``asyncio.gather`` collects per-shard corpus statistics (cached
        per query and epoch), their sums become the global idf inputs, a
        second gather ranks every shard with them, and the merged
        ``(-score, doc_id)`` order reproduces a single-index run exactly.
        No failover — a shard that cannot answer fails the query (its
        documents exist nowhere else).
        """
        return await self._drive(
            self._search_flow(query, top_k, snippet_chars, deadline_ms)
        )

    async def ping(self) -> float:
        """Round-trip time to the slowest reachable endpoint."""
        return await self._drive(self._ping_flow())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def close(self) -> None:
        """Close every per-endpoint client (idempotent)."""
        self._closed = True
        for client in self._clients.values():
            await client.close()

    async def __aenter__(self) -> "AsyncClusterClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
