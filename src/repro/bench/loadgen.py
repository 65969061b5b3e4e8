"""Open-loop load harness: Poisson arrivals against a live serving front.

The serving benchmark (:mod:`repro.bench.serving`) is *closed-loop*: each
client session waits for its previous response before issuing the next
request, so a slow server silently throttles the offered load and the
measured latencies look better than what a real client population would
see.  This harness is *open-loop*: request arrival times are drawn from a
Poisson process (exponential inter-arrivals at the offered rate) **before**
the run starts, and every request is launched at its scheduled instant
whether or not earlier requests have completed.  Latency is measured from
the scheduled arrival — not from when the client got around to sending —
so queueing delay under overload is charged to the server, avoiding the
coordinated-omission trap.

The harness builds a GOV2-like corpus at one of three scales, packs it
into an archive in a temporary directory, serves it from a live
:class:`repro.serve.RlzServer` on a loopback socket, and drives it with a
single multiplexed :class:`repro.serve.AsyncRlzClient` (the wire protocol
pipelines concurrent requests over one connection).  Every response body
is verified against the corpus.

Scales (``LoadScale``) are deliberately separate from the tiny-corpus
:class:`repro.bench.scale.BenchScale` taxonomy: load testing needs
paper-scale corpora (``small`` ~100 MB, ``medium`` ~1 GB) where the
micro-benchmarks need seconds-long CI runs.

A JSON record (``"benchmark": "load"``) is appended to the same history
file as the fastpath benchmarks; the frozen seed baselines there are
untouched.
"""

from __future__ import annotations

import asyncio
import math
import random
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..api import ArchiveConfig, DictionarySpec, EncodingSpec, RlzArchive
from ..corpus import generate_gov_collection
from ..corpus.document import DocumentCollection
from .fastpath import _append_json_record
from .reporting import ResultTable

__all__ = ["LoadScale", "LOAD_SCALES", "load_scale", "load_benchmark"]


@dataclass(frozen=True)
class LoadScale:
    """One rung of the load-testing ladder.

    ``tiny`` exists for CI smoke runs; ``small`` (~100 MB corpus) and
    ``medium`` (~1 GB corpus) are the paper-scale acceptance points.
    """

    name: str
    num_documents: int
    document_bytes: int
    dictionary_bytes: int
    sample_bytes: int
    default_rate: float  # offered requests/second
    default_requests: int

    @property
    def corpus_bytes(self) -> int:
        """Approximate corpus size this scale targets."""
        return self.num_documents * self.document_bytes


LOAD_SCALES: Dict[str, LoadScale] = {
    scale.name: scale
    for scale in (
        LoadScale("tiny", 96, 18 * 1024, 256 * 1024, 512, 150.0, 300),
        LoadScale("small", 5_700, 18 * 1024, 16 * 1024 * 1024, 1024, 400.0, 2_000),
        LoadScale("medium", 57_000, 18 * 1024, 64 * 1024 * 1024, 1024, 400.0, 4_000),
    )
}


def load_scale(name: str) -> LoadScale:
    """Look up a :class:`LoadScale` by name (``tiny``/``small``/``medium``)."""
    try:
        return LOAD_SCALES[name]
    except KeyError:
        known = ", ".join(sorted(LOAD_SCALES))
        raise ValueError(f"unknown load scale {name!r} (known: {known})") from None


def _percentile(sorted_values: List[float], q: float) -> float:
    """The ``q``-quantile (0 < q <= 1) by the nearest-rank method."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


async def _drive(
    host: str,
    port: int,
    contents: Dict[int, bytes],
    rate: float,
    requests: int,
    seed: int,
) -> Tuple[List[float], int, int, float]:
    """Fire ``requests`` Poisson arrivals at the server.

    Returns (latencies-in-seconds for successful requests, errors,
    bytes-verified, wall-clock-seconds).  Latency for each request is
    measured from its *scheduled* arrival time, so time a request spends
    waiting behind a saturated server counts against the server.
    """
    from ..serve import AsyncRlzClient

    rng = random.Random(seed)
    arrivals: List[float] = []
    clock = 0.0
    for _ in range(requests):
        clock += rng.expovariate(rate)
        arrivals.append(clock)
    doc_ids = sorted(contents)
    chosen = [doc_ids[rng.randrange(len(doc_ids))] for _ in range(requests)]

    client = AsyncRlzClient(host, port)
    latencies: List[float] = []
    errors = 0
    bytes_served = 0

    start = time.perf_counter()

    async def one(index: int) -> None:
        nonlocal errors, bytes_served
        doc_id = chosen[index]
        scheduled = start + arrivals[index]
        try:
            payload = await client.get(doc_id)
        except Exception:
            errors += 1
            return
        if payload != contents[doc_id]:
            errors += 1
            return
        bytes_served += len(payload)
        latencies.append(time.perf_counter() - scheduled)

    try:
        tasks: List[asyncio.Task] = []
        for index, arrival in enumerate(arrivals):
            delay = (start + arrival) - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(one(index)))
        if tasks:
            await asyncio.gather(*tasks)
    finally:
        await client.close()
    elapsed = time.perf_counter() - start
    return latencies, errors, bytes_served, elapsed


def load_benchmark(
    scale: str | LoadScale = "tiny",
    rate: Optional[float] = None,
    requests: Optional[int] = None,
    seed: int = 0,
    scheme: str = "ZZ",
    collection: Optional[DocumentCollection] = None,
    output_json: Optional[str | Path] = None,
) -> ResultTable:
    """Run one open-loop load experiment and return its result table.

    Builds the corpus and archive for ``scale`` (unless ``collection`` is
    supplied), starts an :class:`repro.serve.RlzServer` on an ephemeral
    loopback port, offers a Poisson request stream at ``rate`` requests/s,
    and reports p50/p99/p999 latency plus achieved-vs-offered throughput.
    Every response is byte-verified against the corpus.

    The returned table carries the record appended to ``output_json`` in
    ``table.record`` (set as a dynamic attribute) so callers — the CLI's
    ``--p99-bound-ms`` gate in particular — can inspect the numbers.
    """
    scale = load_scale(scale) if isinstance(scale, str) else scale
    rate = scale.default_rate if rate is None else float(rate)
    requests = scale.default_requests if requests is None else int(requests)
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if requests <= 0:
        raise ValueError(f"requests must be positive, got {requests}")

    from ..serve import BackgroundServer

    if collection is None:
        collection = generate_gov_collection(
            num_documents=scale.num_documents,
            target_document_size=scale.document_bytes,
            seed=42,
        )
    contents = {document.doc_id: bytes(document.content) for document in collection}
    corpus_bytes = sum(len(content) for content in contents.values())

    config = ArchiveConfig(
        dictionary=DictionarySpec(
            size=scale.dictionary_bytes, sample_size=scale.sample_bytes
        ),
        encoding=EncodingSpec(scheme=scheme),
    )

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "load.rlz"
        build_start = time.perf_counter()
        RlzArchive.build(collection, config, path).close()
        build_seconds = time.perf_counter() - build_start

        with BackgroundServer(path, config) as server:
            host, port = server.address
            latencies, errors, bytes_served, elapsed = asyncio.run(
                _drive(host, port, contents, rate, requests, seed)
            )
            server_stats = server.stats()

    latencies.sort()
    completed = len(latencies)
    achieved = completed / elapsed if elapsed > 0 else 0.0
    p50 = _percentile(latencies, 0.50) * 1e3
    p99 = _percentile(latencies, 0.99) * 1e3
    p999 = _percentile(latencies, 0.999) * 1e3
    worst = latencies[-1] * 1e3 if latencies else 0.0

    table = ResultTable(
        title=f"Open-loop load: Poisson arrivals at {rate:g} req/s ({scale.name})",
        headers=["Metric", "Value"],
    )
    table.add_row("offered req/s", rate)
    table.add_row("achieved req/s", achieved)
    table.add_row("completed / offered", f"{completed}/{requests}")
    table.add_row("p50 latency (ms)", p50)
    table.add_row("p99 latency (ms)", p99)
    table.add_row("p99.9 latency (ms)", p999)
    table.add_row("max latency (ms)", worst)
    table.add_note(
        f"corpus {corpus_bytes / 1e6:.1f} MB over {len(contents)} documents, "
        f"dictionary {scale.dictionary_bytes / 1e6:.1f} MB, scheme {scheme}"
    )
    table.add_note(
        f"archive build {build_seconds:.1f}s; run {elapsed:.1f}s, "
        f"{bytes_served:,} bytes served and verified, {errors} errors"
    )
    table.add_note(
        "latency measured from each request's scheduled Poisson arrival "
        "(coordinated-omission-free)"
    )

    record = {
        "benchmark": "load",
        "scale": scale.name,
        "collection": collection.name,
        "documents": len(contents),
        "corpus_bytes": corpus_bytes,
        "dictionary_bytes": scale.dictionary_bytes,
        "scheme": scheme,
        "seed": seed,
        "offered_rps": rate,
        "achieved_rps": achieved,
        "requests": requests,
        "completed": completed,
        "errors": errors,
        "bytes_served": bytes_served,
        "build_seconds": build_seconds,
        "run_seconds": elapsed,
        "latency_ms": {"p50": p50, "p99": p99, "p999": p999, "max": worst},
        "server": {
            key: server_stats[key]
            for key in (
                "server_requests",
                "server_errors",
                "server_busy_rejections",
                "server_deadline_rejections",
            )
            if key in server_stats
        },
    }
    if output_json is not None:
        _append_json_record(output_json, record)
    table.record = record  # type: ignore[attr-defined]
    return table
