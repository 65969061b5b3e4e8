"""Declarative configuration for :class:`repro.api.RlzArchive`.

One :class:`ArchiveConfig` replaces the tuning kwargs that used to be
threaded through four constructors (``RlzCompressor``, ``RlzDictionary``,
``ParallelCompressor``, ``RlzStore``).  It is a small tree of frozen
dataclasses, one per concern:

* :class:`DictionarySpec` — how the dictionary is sampled and indexed;
* :class:`EncodingSpec` — the pair-coding scheme;
* :class:`ParallelSpec` — the encode worker pool;
* :class:`CacheSpec` — the serving-time decode-cache tier;
* :class:`ServeSpec` — the network front (``repro serve`` / RlzServer),
  carrying a :class:`DeadlineSpec` (request deadlines + hedging) and a
  :class:`RetrySpec` (retry counts, backoff, token-bucket retry budget);
* :class:`PartitionSpec` — how a ``repro partition`` build splits the
  collection into per-shard stores (shard count, ring geometry, shared
  vs per-shard dictionary, starting epoch);
* :class:`SearchSpec` — whether builds emit a sidecar
  :class:`repro.search.serving.PostingsStore` next to each container,
  plus the BM25 parameters and snippet window the SEARCH opcode serves
  with.

Everything has a sensible default, so ``ArchiveConfig()`` is a valid
paper-faithful configuration; ``dataclasses.replace`` (or keyword
construction) tweaks one concern without touching the others.  The tree
round-trips through plain dicts (:meth:`ArchiveConfig.to_dict` /
:meth:`ArchiveConfig.from_dict`) so configs can live in JSON/CLI land.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..errors import ConfigurationError

__all__ = [
    "ArchiveConfig",
    "CacheSpec",
    "DeadlineSpec",
    "DictionarySpec",
    "EncodingSpec",
    "ParallelSpec",
    "PartitionSpec",
    "RetrySpec",
    "SearchSpec",
    "ServeSpec",
]

_SAMPLING_POLICIES = ("uniform", "prefix", "random_documents")
_JUMP_MODES = ("auto", "dict", "compact", "off")
_CACHE_TIERS = ("none", "lru", "shared")
_START_METHODS = ("fork", "spawn", "forkserver")


@dataclass(frozen=True)
class DictionarySpec:
    """Dictionary sampling and index configuration.

    ``size=None`` (default) auto-sizes the dictionary to ~1% of the
    collection (at least 64 KB), mirroring the paper's observation that
    even ~0.1% dictionaries work well at web scale.
    """

    size: Optional[int] = None
    sample_size: int = 1024
    policy: str = "uniform"
    prefix_fraction: float = 1.0
    seed: int = 0
    sa_algorithm: str = "doubling"
    accelerated: bool = True
    jump_start: str = "auto"

    def __post_init__(self) -> None:
        if self.size is not None and self.size <= 0:
            raise ConfigurationError("dictionary size must be positive (or None)")
        if self.sample_size <= 0:
            raise ConfigurationError("dictionary sample_size must be positive")
        if self.policy not in _SAMPLING_POLICIES:
            raise ConfigurationError(
                f"unknown sampling policy {self.policy!r}; "
                f"expected one of {_SAMPLING_POLICIES}"
            )
        if not 0.0 < self.prefix_fraction <= 1.0:
            raise ConfigurationError("prefix_fraction must be in (0, 1]")
        if self.jump_start not in _JUMP_MODES:
            raise ConfigurationError(
                f"unknown jump_start mode {self.jump_start!r}; "
                f"expected one of {_JUMP_MODES}"
            )

    def sized_for(self, total_bytes: int) -> int:
        """The concrete dictionary size for a collection of ``total_bytes``."""
        if self.size is not None:
            return self.size
        return max(64 * 1024, total_bytes // 100)


@dataclass(frozen=True)
class EncodingSpec:
    """Factor-stream pair-coding configuration (the paper's ZZ/ZV/UZ/UV)."""

    scheme: str = "ZZ"

    def __post_init__(self) -> None:
        if not self.scheme or not isinstance(self.scheme, str):
            raise ConfigurationError("encoding scheme must be a non-empty string")
        object.__setattr__(self, "scheme", self.scheme.upper())


@dataclass(frozen=True)
class ParallelSpec:
    """Encode-pipeline worker-pool configuration.

    ``workers``: ``None``/1 serial, 0 every core, else the pool size.
    ``start_method``/``share_memory`` configure how non-``fork`` workers
    receive the dictionary (see :class:`repro.core.ParallelCompressor`).
    """

    workers: Optional[int] = None
    start_method: Optional[str] = None
    share_memory: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 0:
            raise ConfigurationError(
                "workers must be None/1 (serial), 0 (all cores) or a positive "
                f"pool size; got {self.workers}"
            )
        if self.start_method is not None and self.start_method not in _START_METHODS:
            raise ConfigurationError(
                f"unknown start_method {self.start_method!r}; "
                f"expected one of {_START_METHODS}"
            )


@dataclass(frozen=True)
class CacheSpec:
    """Serving-time decode-cache tier configuration.

    ``tier``:

    * ``"none"`` — no caching (paper-faithful cold decodes, the default);
    * ``"lru"`` — in-process :class:`repro.storage.LruCache` of
      ``capacity`` decoded documents;
    * ``"shared"`` — cross-process :class:`repro.storage.SharedMemoryCache`
      ring of ``capacity`` slots of ``slot_bytes`` each.  Give the spec a
      ``name`` and every process opening the archive with the same name
      shares one cache (first process creates, the rest attach).
    """

    tier: str = "none"
    capacity: int = 0
    slot_bytes: int = 64 * 1024
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.tier not in _CACHE_TIERS:
            raise ConfigurationError(
                f"unknown cache tier {self.tier!r}; expected one of {_CACHE_TIERS}"
            )
        if self.tier == "none":
            if self.capacity:
                raise ConfigurationError("cache tier 'none' takes no capacity")
        elif self.capacity <= 0:
            raise ConfigurationError(
                f"cache tier {self.tier!r} needs a positive capacity"
            )
        if self.slot_bytes <= 0:
            raise ConfigurationError("slot_bytes must be positive")
        if self.name is not None and self.tier != "shared":
            raise ConfigurationError("cache name= only applies to the 'shared' tier")

    def build_tier(self):
        """Instantiate the configured :class:`repro.storage.CacheTier`."""
        from ..storage.cache import LruCache, NullCache, SharedMemoryCache

        if self.tier == "none":
            return NullCache()
        if self.tier == "lru":
            return LruCache(self.capacity)
        return SharedMemoryCache(
            slots=self.capacity, slot_bytes=self.slot_bytes, name=self.name
        )


@dataclass(frozen=True)
class DeadlineSpec:
    """Request-deadline and hedging configuration for the serving clients.

    ``default_ms`` is the per-request deadline every client call carries
    when the caller does not pass its own (0 = no deadline).  Request
    frames propagate the remaining budget to the server, which
    drops work whose deadline already expired instead of decoding it.
    ``hedge_delay`` (seconds) arms hedged ``ClusterClient.get``: when a
    primary shard has not answered within the delay, a backup request is
    fired at the next replica and the first response wins (0 = off).
    Set it near the fleet's p99 latency so hedges stay rare.
    """

    default_ms: int = 0
    hedge_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.default_ms < 0:
            raise ConfigurationError(
                f"deadline default_ms must be non-negative; got {self.default_ms}"
            )
        if self.hedge_delay < 0:
            raise ConfigurationError(
                f"hedge_delay must be non-negative; got {self.hedge_delay}"
            )


@dataclass(frozen=True)
class RetrySpec:
    """Client retry policy: attempt counts, backoff seeds, and the budget.

    ``retries``/``retry_delay`` govern connection dials (full-jittered
    exponential backoff); ``busy_retries`` bounds how often one request
    backs off after ``R_BUSY`` before raising
    :class:`~repro.errors.ServerBusyError`.  ``budget_capacity`` /
    ``budget_refill_rate`` shape the shared token-bucket
    :class:`~repro.serve.RetryBudget`: every retry of any kind spends a
    token, so during a brownout total retry traffic is capped at the
    refill rate instead of multiplying with the request rate.
    """

    retries: int = 3
    retry_delay: float = 0.05
    busy_retries: int = 4
    budget_capacity: float = 64.0
    budget_refill_rate: float = 16.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigurationError(f"retries must be non-negative; got {self.retries}")
        if self.retry_delay < 0:
            raise ConfigurationError(
                f"retry_delay must be non-negative; got {self.retry_delay}"
            )
        if self.busy_retries < 0:
            raise ConfigurationError(
                f"busy_retries must be non-negative; got {self.busy_retries}"
            )
        if self.budget_capacity <= 0:
            raise ConfigurationError(
                f"budget_capacity must be positive; got {self.budget_capacity}"
            )
        if self.budget_refill_rate < 0:
            raise ConfigurationError(
                f"budget_refill_rate must be non-negative; got {self.budget_refill_rate}"
            )


@dataclass(frozen=True)
class ServeSpec:
    """Network-front configuration (``repro serve`` and
    :class:`repro.serve.RlzServer`).

    ``port=0`` binds an ephemeral port (the server reports the real one);
    ``max_inflight`` is the backpressure gate — at most that many requests
    decode concurrently *per archive*, the rest queue (and once the queue
    is a full gate deep, requests are shed with ``R_BUSY``);
    ``max_pipeline`` bounds how many requests one connection
    may have in flight before the server stops reading its frames;
    ``max_frame_bytes`` bounds a single request/response frame (oversized
    frames are rejected as :class:`~repro.errors.ProtocolError` before any
    allocation); ``drain_seconds`` is how long a graceful shutdown waits
    for in-flight requests before cancelling them.

    The cluster fields:

    * ``archives`` — ``name -> container path`` map; a server given one
      hosts every named archive behind one port (the
      :class:`~repro.serve.RlzRouter`), opening each lazily;
    * ``default_archive`` — the name served to clients that do not pick
      one (an empty HELLO name); defaults to the first entry;
    * ``endpoints`` — ``host:port`` list a
      :class:`~repro.serve.ClusterClient` fans out over;
    * ``virtual_nodes`` — consistent-hash points per endpoint in the
      shard map (more points = smoother balance, bigger ring).

    Fault-tolerance policy lives in the nested ``deadline``
    (:class:`DeadlineSpec`) and ``retry`` (:class:`RetrySpec`) specs;
    both accept plain dicts so JSON configs round-trip.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 64
    max_frame_bytes: int = 64 * 1024 * 1024
    drain_seconds: float = 5.0
    max_pipeline: int = 128
    archives: Optional[Dict[str, str]] = None
    default_archive: Optional[str] = None
    endpoints: Optional[Tuple[str, ...]] = None
    virtual_nodes: int = 64
    deadline: DeadlineSpec = field(default_factory=DeadlineSpec)
    retry: RetrySpec = field(default_factory=RetrySpec)

    def __post_init__(self) -> None:
        if isinstance(self.deadline, dict):
            object.__setattr__(self, "deadline", DeadlineSpec(**self.deadline))
        elif not isinstance(self.deadline, DeadlineSpec):
            raise ConfigurationError("deadline must be a DeadlineSpec (or dict)")
        if isinstance(self.retry, dict):
            object.__setattr__(self, "retry", RetrySpec(**self.retry))
        elif not isinstance(self.retry, RetrySpec):
            raise ConfigurationError("retry must be a RetrySpec (or dict)")
        if not self.host or not isinstance(self.host, str):
            raise ConfigurationError("serve host must be a non-empty string")
        if not 0 <= self.port <= 65535:
            raise ConfigurationError(f"serve port must be in [0, 65535]; got {self.port}")
        if self.max_inflight <= 0:
            raise ConfigurationError(
                f"max_inflight must be positive; got {self.max_inflight}"
            )
        if self.max_frame_bytes < 4096:
            raise ConfigurationError(
                "max_frame_bytes must be at least 4096 (one handshake frame)"
            )
        if self.drain_seconds < 0:
            raise ConfigurationError("drain_seconds must be non-negative")
        if self.max_pipeline <= 0:
            raise ConfigurationError(
                f"max_pipeline must be positive; got {self.max_pipeline}"
            )
        if self.virtual_nodes <= 0:
            raise ConfigurationError(
                f"virtual_nodes must be positive; got {self.virtual_nodes}"
            )
        if self.archives is not None:
            if not isinstance(self.archives, dict) or not self.archives:
                raise ConfigurationError(
                    "archives must be a non-empty {name: path} mapping (or None)"
                )
            normalized = {}
            for name, path in self.archives.items():
                if not isinstance(name, str):
                    raise ConfigurationError(
                        f"archive names must be strings; got {name!r}"
                    )
                normalized[name] = str(path)
            object.__setattr__(self, "archives", normalized)
        if self.default_archive is not None:
            if self.archives is None or self.default_archive not in self.archives:
                raise ConfigurationError(
                    f"default_archive {self.default_archive!r} is not in the "
                    "archives map"
                )
        if self.endpoints is not None:
            endpoints = tuple(str(endpoint) for endpoint in self.endpoints)
            if not endpoints:
                raise ConfigurationError(
                    "endpoints must be a non-empty host:port list (or None)"
                )
            object.__setattr__(self, "endpoints", endpoints)


@dataclass(frozen=True)
class PartitionSpec:
    """Partitioned-build configuration (``repro partition``).

    ``shards`` is how many per-shard stores a partitioned build writes;
    each shard's container holds only the doc ids its arc of the
    consistent-hash ring owns.  ``virtual_nodes`` must match the ring the
    serving fleet uses (it determines the arcs).  ``shared_dictionary``
    selects between one dictionary sampled from the whole collection and
    embedded in every shard (cross-shard compression stays paper-faithful,
    the default) and a per-shard dictionary sampled from each shard's own
    documents (smaller build memory, shard-local tuning).  ``epoch`` seeds
    the shard-map epoch recorded in every shard manifest; rebalances bump
    it from there.
    """

    shards: int = 1
    virtual_nodes: int = 64
    shared_dictionary: bool = True
    epoch: int = 1

    def __post_init__(self) -> None:
        if self.shards <= 0:
            raise ConfigurationError(f"shards must be positive; got {self.shards}")
        if self.virtual_nodes <= 0:
            raise ConfigurationError(
                f"virtual_nodes must be positive; got {self.virtual_nodes}"
            )
        if self.epoch <= 0:
            raise ConfigurationError(f"epoch must be positive; got {self.epoch}")


@dataclass(frozen=True)
class SearchSpec:
    """Search-serving configuration (the SEARCH opcode and its index).

    ``enabled`` makes builds (``RlzArchive.build``, ``repro partition``)
    emit a :class:`repro.search.serving.PostingsStore` sidecar next to
    each container — per-shard builds index only the documents the shard
    owns.  ``k1``/``b`` are the Okapi BM25 parameters servers score with
    (they must match whatever in-memory index results are compared
    against; the defaults are the textbook values
    :class:`repro.search.InvertedIndex` uses).  ``snippet_chars`` is the
    default window, in bytes, of the query-biased snippet a SEARCH reply
    carries when the client does not pick its own (0 = no snippets).
    """

    enabled: bool = False
    k1: float = 1.2
    b: float = 0.75
    snippet_chars: int = 160

    def __post_init__(self) -> None:
        if self.k1 < 0:
            raise ConfigurationError(f"BM25 k1 must be non-negative; got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ConfigurationError(f"BM25 b must be in [0, 1]; got {self.b}")
        if self.snippet_chars < 0:
            raise ConfigurationError(
                f"snippet_chars must be non-negative; got {self.snippet_chars}"
            )


@dataclass(frozen=True)
class ArchiveConfig:
    """The single way to configure building and serving an archive."""

    dictionary: DictionarySpec = field(default_factory=DictionarySpec)
    encoding: EncodingSpec = field(default_factory=EncodingSpec)
    parallel: ParallelSpec = field(default_factory=ParallelSpec)
    cache: CacheSpec = field(default_factory=CacheSpec)
    serve: ServeSpec = field(default_factory=ServeSpec)
    partition: PartitionSpec = field(default_factory=PartitionSpec)
    search: SearchSpec = field(default_factory=SearchSpec)

    def __post_init__(self) -> None:
        if not isinstance(self.dictionary, DictionarySpec):
            raise ConfigurationError("dictionary must be a DictionarySpec")
        if not isinstance(self.encoding, EncodingSpec):
            raise ConfigurationError("encoding must be an EncodingSpec")
        if not isinstance(self.parallel, ParallelSpec):
            raise ConfigurationError("parallel must be a ParallelSpec")
        if not isinstance(self.cache, CacheSpec):
            raise ConfigurationError("cache must be a CacheSpec")
        if not isinstance(self.serve, ServeSpec):
            raise ConfigurationError("serve must be a ServeSpec")
        if not isinstance(self.partition, PartitionSpec):
            raise ConfigurationError("partition must be a PartitionSpec")
        if not isinstance(self.search, SearchSpec):
            raise ConfigurationError("search must be a SearchSpec")

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A plain-dict form (JSON-safe) of the whole tree."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ArchiveConfig":
        """Rebuild a config from :meth:`to_dict` output (extra keys rejected)."""
        specs = {
            "dictionary": DictionarySpec,
            "encoding": EncodingSpec,
            "parallel": ParallelSpec,
            "cache": CacheSpec,
            "serve": ServeSpec,
            "partition": PartitionSpec,
            "search": SearchSpec,
        }
        unknown = set(data) - set(specs)
        if unknown:
            raise ConfigurationError(
                f"unknown ArchiveConfig sections: {sorted(unknown)}"
            )
        kwargs = {}
        for key, spec_cls in specs.items():
            if key not in data:
                continue
            section = data[key]
            if isinstance(section, spec_cls):
                kwargs[key] = section
            elif isinstance(section, dict):
                try:
                    kwargs[key] = spec_cls(**section)
                except TypeError as exc:
                    raise ConfigurationError(f"bad {key} section: {exc}") from exc
            else:
                raise ConfigurationError(
                    f"{key} section must be a dict or {spec_cls.__name__}"
                )
        return cls(**kwargs)
