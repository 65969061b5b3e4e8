"""Network serving: archives behind sockets, clients that mirror them.

The paper's claim is that RLZ makes retrieval from a compressed web
collection cheap enough to *serve from*; this package makes that serving
story cross the process boundary — and, with the cluster layer, the
machine boundary:

* :mod:`repro.serve.protocol` — the length-prefixed binary wire protocol:
  one CRC-checked framing with opcodes for ``get``/``get_many``/``scan``/
  ``stats``/``ping`` and structured error frames that round-trip every
  :mod:`repro.errors` class.  Every frame carries a request id, so replies
  may arrive out of order — one connection carries a whole pipeline — and
  the HELLO handshake checks the protocol version and names the archive
  to talk to;
* :class:`RlzRouter` — many named archives (lazily opened, per-archive
  inflight gates and stats) behind one server;
* :class:`RlzServer` — the asyncio server: per-connection stats,
  request pipelining with ``R_BUSY`` load shedding, graceful
  drain-then-cancel shutdown (:class:`BackgroundServer` runs it on a
  dedicated thread for synchronous callers);
* :class:`RlzClient` / :class:`AsyncRlzClient` — clients implementing the
  same :class:`repro.api.ArchiveView` surface as a local
  :class:`repro.api.RlzArchive`, with connection pooling, retry,
  pipelined windows (:meth:`RlzClient.pipelined_get`), chunked bulk scans
  and — async — full single-connection multiplexing;
* :class:`ClusterClient` — one ``ArchiveView`` over N endpoints:
  consistent-hash routing (:class:`ShardMap`), per-endpoint
  :class:`CircuitBreaker`\\ s, ordered ``get_many`` fan-out/fan-in and
  failover that keeps results byte-identical when a shard dies;
* :mod:`repro.serve.retry` — the fault-tolerance primitives: request
  frames propagate per-request **deadlines** (:class:`Deadline`) on the wire so
  servers drop expired work, every client retry draws from a shared
  token-bucket :class:`RetryBudget` so brownouts are not amplified, and
  ``R_BUSY`` replies carry queue depth + a retry-after hint honoured with
  jittered backoff.  ``ClusterClient`` can additionally *hedge* reads
  (``hedge_delay``) to cut the tail of one slow shard;
* search serving: a ``SEARCH`` opcode ranks BM25 top-k
  against each shard's persistent posting-list sidecar
  (:class:`repro.search.serving.PostingsStore`), with optional
  query-biased snippets decoded through the store's windowed
  partial-decode path; :meth:`ClusterClient.search` /
  :meth:`AsyncClusterClient.search` fan the query out to every shard,
  exchange global corpus statistics so sharded scores equal a
  single-index run exactly, and merge the per-shard top-k;
* partitioned archives: :func:`build_partitioned_archives`
  splits one collection into per-shard stores that each hold *only* the
  doc ids their arc of the ring owns, servers refuse unowned ids with
  ``R_WRONG_SHARD`` (carrying the current map epoch) and answer
  ``SHARD_MAP`` outside the backpressure gate, :func:`rebalance` streams
  a joining shard's arc over live (resumable, epoch-bumping, zero failed
  reads), and :class:`ClusterClient` / :class:`AsyncClusterClient`
  bootstrap and refresh their :class:`ShardMap` from the fleet itself —
  pushed epochs, no static map, no restart.

Configuration lives in :class:`repro.api.ServeSpec` (the ``serve`` section
of :class:`repro.api.ArchiveConfig`); the CLI front ends are ``repro
serve`` (``name=path`` archives) and ``repro get --connect`` (comma-
separated endpoints fan out through a :class:`ClusterClient`).
"""

from .async_cluster import AsyncClusterClient
from .client import AsyncRlzClient, RlzClient
from .cluster import CircuitBreaker, ClusterClient, ShardMap
from .partition import build_partitioned_archives, write_spare_shard
from .protocol import (
    ERROR_CODES,
    MAGIC,
    PROTOCOL_V5,
    PROTOCOL_VERSION,
    Opcode,
    SearchHit,
)
from .rebalance import RebalanceReport, rebalance
from .retry import Deadline, RetryBudget
from .router import RlzRouter
from .server import BackgroundServer, ConnectionStats, RlzServer

__all__ = [
    "AsyncClusterClient",
    "AsyncRlzClient",
    "BackgroundServer",
    "CircuitBreaker",
    "ClusterClient",
    "ConnectionStats",
    "Deadline",
    "ERROR_CODES",
    "MAGIC",
    "Opcode",
    "PROTOCOL_V5",
    "PROTOCOL_VERSION",
    "RebalanceReport",
    "RetryBudget",
    "RlzClient",
    "RlzRouter",
    "RlzServer",
    "SearchHit",
    "ShardMap",
    "build_partitioned_archives",
    "rebalance",
    "write_spare_shard",
]
