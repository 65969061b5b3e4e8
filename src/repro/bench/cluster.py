"""Cluster-serving benchmark: pipelining and shard fan-out vs a sequential loop.

Two questions, one experiment:

1. **Does pipelining pay?**  The same shuffled repeated-access query log
   runs over *one* connection twice — as a sequential ``RlzClient.get``
   loop (one request in flight, a full round trip each) and as a
   pipelined window (:meth:`RlzClient.pipelined_get`).  The sequential
   loop is the 1-socket-client shape the ROADMAP flags at ~0.4x local;
   the pipelined loop keeps a window of requests in flight so the
   per-request round-trip largely vanishes.

2. **Does fan-out scale?**  The same log replays through a
   :class:`ClusterClient` over 1, 2 and 4 replica servers (consistent-
   hash routing, one pipelined batch per shard, ordered fan-in).

Every pipeline's output is byte-verified against the corpus, and a JSON
record (``"benchmark": "fastpath-cluster"``) is appended to the same
history as the other fast-path experiments; the frozen seed baselines in
:mod:`repro.bench.fastpath` are untouched.
"""

from __future__ import annotations

import random
import tempfile
import time
from pathlib import Path
from typing import List, Optional, Sequence

from ..api import (
    ArchiveConfig,
    CacheSpec,
    DictionarySpec,
    EncodingSpec,
    RlzArchive,
    ServeSpec,
)
from ..corpus.document import DocumentCollection
from ..serve import BackgroundServer, ClusterClient, RlzClient
from .corpora import gov_collection
from .fastpath import _append_json_record
from .reporting import ResultTable
from .scale import BenchScale, current_scale

__all__ = ["cluster_benchmark"]


def cluster_benchmark(
    collection: Optional[DocumentCollection] = None,
    scale: Optional[BenchScale] = None,
    dictionary_label: str = "1.0",
    scheme: str = "ZZ",
    shard_counts: Sequence[int] = (1, 2, 4),
    serving_repeats: int = 2,
    cache_capacity: int = 128,
    pipeline_window: int = 32,
    output_json: Optional[str | Path] = None,
) -> ResultTable:
    """Measure pipelined and sharded serving against a sequential loop.

    Builds one archive in a temporary directory, replays the shuffled log
    through (a) a one-in-flight ``get`` loop on one connection, (b) a
    pipelined window on one connection, and (c) a
    :class:`ClusterClient` over 1/2/4 replica servers; byte-verifies every
    pipeline and optionally appends a machine-readable record to
    ``output_json``.
    """
    scale = scale or current_scale()
    collection = collection if collection is not None else gov_collection(scale)
    contents = {document.doc_id: document.content for document in collection}

    config = ArchiveConfig(
        dictionary=DictionarySpec(
            size=scale.dictionary_sizes[dictionary_label],
            sample_size=scale.default_sample_size,
        ),
        encoding=EncodingSpec(scheme=scheme),
        cache=CacheSpec(tier="lru", capacity=cache_capacity),
        serve=ServeSpec(),
    )

    doc_ids = sorted(contents)
    access_log = doc_ids * serving_repeats
    random.Random(0).shuffle(access_log)
    requests = len(access_log)
    serving_bytes = sum(len(contents[doc_id]) for doc_id in access_log)
    expected = [contents[doc_id] for doc_id in access_log]
    verified = {}

    def rate(elapsed: float) -> float:
        return requests / elapsed if elapsed > 0 else 0.0

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cluster.rlz"
        RlzArchive.build(collection, config, path).close()

        # -- one server: sequential vs pipelined, 1 conn -------------------
        with BackgroundServer(path, config) as server:
            host, port = server.address
            with RlzClient(host, port) as client:
                start = time.perf_counter()
                served_sequential = [client.get(doc_id) for doc_id in access_log]
                sequential_elapsed = time.perf_counter() - start
            verified["sequential_identical"] = served_sequential == expected

            with RlzClient(host, port) as client:
                start = time.perf_counter()
                served_pipelined = client.pipelined_get(
                    access_log, window=pipeline_window
                )
                pipelined_elapsed = time.perf_counter() - start
            verified["pipelined_identical"] = served_pipelined == expected

        # -- shard fan-out: ClusterClient over N replica servers ----------
        shard_runs = []
        for shards in shard_counts:
            servers = [BackgroundServer(path, config) for _ in range(shards)]
            try:
                endpoints = []
                for background in servers:
                    server_host, server_port = background.start()
                    endpoints.append(f"{server_host}:{server_port}")
                with ClusterClient(
                    endpoints, pipeline_window=pipeline_window
                ) as cluster:
                    start = time.perf_counter()
                    served = cluster.get_many(access_log)
                    elapsed = time.perf_counter() - start
                verified[f"cluster_{shards}_identical"] = served == expected
                shard_runs.append((shards, elapsed))
            finally:
                for background in servers:
                    try:
                        background.stop()
                    except Exception:
                        pass

    speedup = sequential_elapsed / pipelined_elapsed if pipelined_elapsed > 0 else 0.0
    table = ResultTable(
        title="Cluster serving: pipelining and shard fan-out vs request/response",
        headers=["Pipeline", "Seconds", "Requests/s", "Relative to sequential loop"],
    )
    table.add_row(
        "serve/sequential-1-conn", sequential_elapsed, rate(sequential_elapsed), 1.0
    )
    table.add_row(
        "serve/pipelined-1-conn", pipelined_elapsed, rate(pipelined_elapsed), speedup
    )
    runs_json = []
    for shards, elapsed in shard_runs:
        table.add_row(
            f"serve/cluster-{shards}-shards",
            elapsed,
            rate(elapsed),
            sequential_elapsed / elapsed if elapsed > 0 else 0.0,
        )
        runs_json.append(
            {
                "shards": shards,
                "seconds": elapsed,
                "requests_per_s": rate(elapsed),
                "relative_to_sequential": (
                    sequential_elapsed / elapsed if elapsed > 0 else 0.0
                ),
            }
        )

    all_ok = all(verified.values())
    table.add_note(f"served bytes verified against corpus: {all_ok}")
    table.add_note(
        f"pipelined 1-conn speedup over the sequential loop: {speedup:.2f}x "
        f"(window {pipeline_window})"
    )
    table.add_note(
        f"query log: {requests} requests over {len(doc_ids)} documents "
        f"(x{serving_repeats}), {serving_bytes:,} bytes served per pipeline"
    )

    if output_json is not None:
        record = {
            "benchmark": "fastpath-cluster",
            "scale": scale.name,
            "collection": collection.name,
            "documents": len(doc_ids),
            "requests": requests,
            "serving_repeats": serving_repeats,
            "bytes_served": serving_bytes,
            "scheme": scheme,
            "cache_capacity": cache_capacity,
            "pipeline_window": pipeline_window,
            "serve": {
                "sequential_seconds": sequential_elapsed,
                "sequential_requests_per_s": rate(sequential_elapsed),
                "pipelined_seconds": pipelined_elapsed,
                "pipelined_requests_per_s": rate(pipelined_elapsed),
                "pipelined_speedup": speedup,
                "cluster_runs": runs_json,
            },
            "verified": verified,
        }
        json_path = _append_json_record(output_json, record)
        table.add_note(f"JSON record appended to {json_path}")

    return table
