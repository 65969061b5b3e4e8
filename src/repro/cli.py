"""Command-line entry points.

Four console scripts are installed with the package:

* ``repro``          — umbrella command:
  ``repro corpus|compress|bench|serve-bench ...``;
* ``repro-corpus``  — generate a synthetic collection and write it to a
  REPRO-WARC file;
* ``repro-compress`` — compress a REPRO-WARC collection with rlz (or a
  baseline) into a container file, and optionally verify it by decoding;
* ``repro-bench``   — run the paper's experiments and print/save the result
  tables.

``repro serve-bench`` runs the serving-front benchmark (concurrent async
clients through :class:`repro.api.AsyncRlzArchive` vs a sequential ``get``
loop) and can append its record to the fast-path JSON history.

``repro serve`` puts a built archive behind a socket
(:class:`repro.serve.RlzServer`); ``repro get`` retrieves documents from
either a local archive path or — with ``--connect host:port`` — a running
server, through the same :class:`repro.api.ArchiveView` code path.

``repro verify PATH`` scans a container end-to-end against its embedded
CRC32 checksum table (:func:`repro.storage.verify_container`) and exits
non-zero if any section or payload extent fails — a single flipped byte
anywhere in a checksummed extent is detected.

``repro partition`` builds a partitioned fleet (one collection in, N
per-shard containers out, each holding only the doc ids its arc of the
consistent-hash ring owns); ``repro rebalance`` live-streams a joining
shard's arc onto it and bumps the fleet's map epoch with zero failed
reads; ``repro stats --connect host:port [--watch N]`` tails a running
server's HEALTH snapshot (queue depth, service-time EWMA, deadline
rejections, shard-map epoch).

``repro search`` ranks documents with BM25 against the posting-list
sidecar written by ``--search-index`` builds — locally against a container
path, or over the wire (``--connect``) where a comma-separated endpoint
list fans the query out across every shard and merges the per-shard top-k
into exactly the single-index ranking, optionally with query-biased
snippets decoded through the windowed partial-decode path.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import signal
import sys
from pathlib import Path
from typing import Optional, Sequence

from .api import ArchiveConfig, CacheSpec, RlzArchive, ServeSpec
from .bench.harness import EXPERIMENTS, run_all
from .bench.serving import serving_benchmark
from .core import DictionaryConfig, RlzCompressor
from .corpus import (
    generate_gov_collection,
    generate_wikipedia_collection,
    read_warc,
    url_sorted,
    write_warc,
)
from .errors import ReproError
from .storage import BlockedStore, BlockedStoreConfig, RawStore, RlzStore

__all__ = [
    "corpus_main",
    "compress_main",
    "bench_main",
    "serve_bench_main",
    "bench_load_main",
    "serve_main",
    "get_main",
    "verify_main",
    "partition_main",
    "rebalance_main",
    "search_main",
    "stats_main",
    "check_main",
    "main",
]


def _cache_spec_from_args(args: argparse.Namespace) -> CacheSpec:
    """Build the CacheSpec shared by ``repro serve`` / ``repro get``."""
    if args.cache == "none":
        return CacheSpec()
    return CacheSpec(
        tier=args.cache,
        capacity=args.cache_capacity,
        name=args.cache_name if args.cache == "shared" else None,
    )


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache",
        choices=("none", "lru", "shared"),
        default="none",
        help="decode-cache tier for the opened archive",
    )
    parser.add_argument(
        "--cache-capacity",
        type=int,
        default=256,
        help="cache capacity (documents for lru, ring slots for shared)",
    )
    parser.add_argument(
        "--cache-name",
        default=None,
        help="shared-memory segment name (shared tier only; lets a fleet of "
        "servers on one machine share a cache)",
    )


def corpus_main(argv: Optional[Sequence[str]] = None) -> int:
    """Generate a synthetic collection and store it as a REPRO-WARC file."""
    parser = argparse.ArgumentParser(
        prog="repro-corpus",
        description="Generate a synthetic GOV2-like or Wikipedia-like collection.",
    )
    parser.add_argument("output", help="path of the REPRO-WARC file to write")
    parser.add_argument(
        "--kind", choices=("gov", "wikipedia"), default="gov", help="collection flavour"
    )
    parser.add_argument("--documents", type=int, default=500, help="number of documents")
    parser.add_argument("--seed", type=int, default=42, help="generator seed")
    parser.add_argument(
        "--url-sort", action="store_true", help="write the collection in URL-sorted order"
    )
    args = parser.parse_args(argv)

    if args.kind == "gov":
        collection = generate_gov_collection(num_documents=args.documents, seed=args.seed)
    else:
        collection = generate_wikipedia_collection(
            num_documents=args.documents, seed=args.seed
        )
    if args.url_sort:
        collection = url_sorted(collection)
    written = write_warc(collection, args.output)
    print(
        f"wrote {len(collection)} documents ({collection.total_size:,} bytes of content, "
        f"{written:,} bytes on disk) to {args.output}"
    )
    return 0


def compress_main(argv: Optional[Sequence[str]] = None) -> int:
    """Compress a REPRO-WARC collection into a container file."""
    parser = argparse.ArgumentParser(
        prog="repro-compress",
        description="Compress a REPRO-WARC collection with rlz or a baseline.",
    )
    parser.add_argument("input", help="REPRO-WARC file produced by repro-corpus")
    parser.add_argument("output", help="container file to write")
    parser.add_argument(
        "--method",
        choices=("rlz", "zlib", "lzma", "ascii"),
        default="rlz",
        help="compression method",
    )
    parser.add_argument("--scheme", default="ZZ", help="rlz pair-coding scheme (e.g. ZV)")
    parser.add_argument(
        "--dictionary-size", type=int, default=1024 * 1024, help="rlz dictionary bytes"
    )
    parser.add_argument("--sample-size", type=int, default=1024, help="rlz sample bytes")
    parser.add_argument(
        "--block-size", type=float, default=0.5, help="baseline block size in MB"
    )
    parser.add_argument(
        "--verify", action="store_true", help="decode every document and compare"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="rlz encode worker processes (1 serial, 0 all cores)",
    )
    parser.add_argument(
        "--start-method",
        choices=("fork", "spawn", "forkserver"),
        default=None,
        help="multiprocessing start method for --workers pools "
        "(default: fork where available, else spawn)",
    )
    parser.add_argument(
        "--share-memory",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="share the dictionary + suffix array with spawn/forkserver "
        "workers via multiprocessing.shared_memory instead of rebuilding "
        "per worker (default: auto)",
    )
    parser.add_argument(
        "--search-index",
        action="store_true",
        help="also write the <output>.idx posting-list sidecar so the "
        "archive can answer `repro search` / SEARCH requests (rlz only)",
    )
    args = parser.parse_args(argv)
    if args.workers < 0:
        parser.error(
            "--workers must be None/1 (serial), 0 (all cores) or a positive "
            f"pool size, got {args.workers}"
        )
    if args.search_index and args.method != "rlz":
        parser.error("--search-index requires --method rlz")

    collection = read_warc(args.input)
    if args.method == "rlz":
        compressor = RlzCompressor(
            dictionary_config=DictionaryConfig(
                size=args.dictionary_size, sample_size=args.sample_size
            ),
            scheme=args.scheme,
            workers=args.workers,
            start_method=args.start_method,
            share_memory=args.share_memory,
        )
        compressed = compressor.compress(collection)
        RlzStore.write(compressed, args.output)
        if args.search_index:
            from .search.serving import index_sidecar_path, write_postings

            sidecar = index_sidecar_path(Path(args.output))
            write_postings(
                ((document.doc_id, document.content) for document in collection),
                sidecar,
            )
            print(f"search index: {sidecar} ({sidecar.stat().st_size:,} bytes)")
        store = RlzStore.open(args.output)
        percent = store.compression_percent(include_dictionary=True)
    elif args.method == "ascii":
        RawStore.build(collection, args.output)
        store = RawStore.open(args.output)
        percent = 100.0
    else:
        config = BlockedStoreConfig(
            compressor=args.method, block_size=int(args.block_size * 1024 * 1024)
        )
        BlockedStore.build(collection, args.output, config)
        store = BlockedStore.open(args.output)
        percent = store.compression_percent()

    status = 0
    if args.verify:
        failures = sum(
            1 for document in collection if store.get(document.doc_id) != document.content
        )
        if failures:
            print(f"VERIFY FAILED: {failures} documents did not round-trip", file=sys.stderr)
            status = 1
        else:
            print("verify: all documents round-tripped")
    store.close()
    print(
        f"compressed {collection.total_size:,} bytes -> {Path(args.output).stat().st_size:,} "
        f"bytes on disk ({percent:.2f}% encoding)"
    )
    return status


def bench_main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the paper's experiments."""
    parser = argparse.ArgumentParser(
        prog="repro-bench", description="Regenerate the paper's tables and figures."
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help=f"experiment ids to run (default: all). Known: {', '.join(sorted(EXPERIMENTS))}",
    )
    parser.add_argument(
        "--output", default="bench_results.txt", help="file to append rendered tables to"
    )
    args = parser.parse_args(argv)
    run_all(output_path=args.output, experiments=args.experiments or None)
    print(f"\nresults appended to {args.output}")
    return 0


def serve_bench_main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the serving-front benchmark (async clients vs sequential loop)."""
    parser = argparse.ArgumentParser(
        prog="repro serve-bench",
        description=(
            "Benchmark the async serving front (repro.api.AsyncRlzArchive: "
            "decode-cache tier, thread-pool offload, request coalescing) "
            "against the legacy sequential get loop on a repeated-access "
            "query log.  Scale with REPRO_BENCH_SCALE."
        ),
    )
    parser.add_argument(
        "--clients", type=int, default=8, help="concurrent async client sessions"
    )
    parser.add_argument(
        "--repeats", type=int, default=4, help="times the log touches each document"
    )
    parser.add_argument(
        "--cache-capacity", type=int, default=128, help="LRU tier capacity (documents)"
    )
    parser.add_argument("--scheme", default="ZZ", help="rlz pair-coding scheme")
    parser.add_argument(
        "--max-workers", type=int, default=None, help="decode thread-pool width"
    )
    parser.add_argument(
        "--output", default="bench_results.txt", help="file to append the table to"
    )
    parser.add_argument(
        "--output-json",
        default=None,
        help="JSON history to append the record to "
        "(e.g. benchmarks/results/fastpath.json)",
    )
    args = parser.parse_args(argv)
    if args.clients <= 0:
        parser.error(f"--clients must be positive, got {args.clients}")
    if args.repeats <= 0:
        parser.error(f"--repeats must be positive, got {args.repeats}")
    if args.cache_capacity <= 0:
        parser.error(f"--cache-capacity must be positive, got {args.cache_capacity}")

    table = serving_benchmark(
        clients=args.clients,
        serving_repeats=args.repeats,
        cache_capacity=args.cache_capacity,
        scheme=args.scheme,
        max_workers=args.max_workers,
        output_json=args.output_json,
    )
    table.print()
    if args.output:
        table.save(args.output)
        print(f"\nresults appended to {args.output}")
    if "served bytes verified against corpus: True" not in "\n".join(table.notes):
        print("VERIFY FAILED: served bytes did not match the corpus", file=sys.stderr)
        return 1
    return 0


def bench_load_main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the open-loop load harness against a live server."""
    from .bench.loadgen import LOAD_SCALES, load_benchmark

    parser = argparse.ArgumentParser(
        prog="repro bench-load",
        description=(
            "Drive a live RlzServer with an open-loop Poisson request "
            "stream (arrivals scheduled up front, latency measured from "
            "the scheduled arrival — coordinated-omission-free) and report "
            "p50/p99/p99.9 latency plus achieved-vs-offered throughput.  "
            "The corpus/archive are built at --scale and served from a "
            "temporary directory on a loopback socket."
        ),
    )
    parser.add_argument(
        "--scale",
        default="tiny",
        choices=sorted(LOAD_SCALES),
        help="corpus size rung (tiny: CI smoke, small: ~100 MB, medium: ~1 GB)",
    )
    parser.add_argument(
        "--rate", type=float, default=None, help="offered requests/second"
    )
    parser.add_argument(
        "--requests", type=int, default=None, help="total requests to offer"
    )
    parser.add_argument("--seed", type=int, default=0, help="arrival/choice RNG seed")
    parser.add_argument("--scheme", default="ZZ", help="rlz pair-coding scheme")
    parser.add_argument(
        "--output", default="bench_results.txt", help="file to append the table to"
    )
    parser.add_argument(
        "--output-json",
        default=None,
        help="JSON history to append the record to "
        "(e.g. benchmarks/results/fastpath.json)",
    )
    parser.add_argument(
        "--p99-bound-ms",
        type=float,
        default=None,
        help="exit non-zero when p99 latency exceeds this bound (CI gate)",
    )
    args = parser.parse_args(argv)
    if args.rate is not None and args.rate <= 0:
        parser.error(f"--rate must be positive, got {args.rate}")
    if args.requests is not None and args.requests <= 0:
        parser.error(f"--requests must be positive, got {args.requests}")

    table = load_benchmark(
        scale=args.scale,
        rate=args.rate,
        requests=args.requests,
        seed=args.seed,
        scheme=args.scheme,
        output_json=args.output_json,
    )
    table.print()
    if args.output:
        table.save(args.output)
        print(f"\nresults appended to {args.output}")

    record = table.record
    if record["errors"]:
        print(f"repro bench-load: {record['errors']} failed requests", file=sys.stderr)
        return 1
    if args.p99_bound_ms is not None:
        p99 = record["latency_ms"]["p99"]
        if p99 > args.p99_bound_ms:
            print(
                f"repro bench-load: p99 {p99:.2f} ms exceeds bound "
                f"{args.p99_bound_ms:.2f} ms",
                file=sys.stderr,
            )
            return 1
    return 0


def _parse_archive_args(parser, texts: Sequence[str]):
    """``repro serve`` positionals: bare paths or ``name=path`` pairs.

    One bare path keeps the single-archive server; anything else builds a
    name→path map for the router (bare paths name themselves by stem).
    """
    if len(texts) == 1 and "=" not in texts[0]:
        return texts[0], None
    archives = {}
    for text in texts:
        name, separator, path = text.partition("=")
        if not separator:
            name, path = Path(text).stem, text
        if not name or not path:
            parser.error(f"archives must be PATH or NAME=PATH, got {text!r}")
        if name in archives:
            parser.error(f"duplicate archive name {name!r}")
        archives[name] = path
    return None, archives


def serve_main(argv: Optional[Sequence[str]] = None) -> int:
    """Serve built archives over a socket until interrupted."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Put built RLZ archives behind a socket (repro.serve.RlzServer). "
            "One PATH serves a single archive; several NAME=PATH pairs serve "
            "a multi-archive router (clients pick with RlzClient(archive=...) "
            "or `repro get --archive`).  Clients connect with "
            "repro.serve.RlzClient or `repro get --connect host:port`.  "
            "SIGINT/SIGTERM shut down gracefully."
        ),
    )
    parser.add_argument(
        "archive",
        nargs="+",
        metavar="PATH|NAME=PATH",
        help="container file(s) written by repro compress; NAME=PATH pairs "
        "host multiple named archives behind one port",
    )
    parser.add_argument("--host", default="127.0.0.1", help="address to bind")
    parser.add_argument(
        "--port", type=int, default=0, help="port to bind (0 = ephemeral, printed)"
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="backpressure gate: concurrent requests served per archive",
    )
    parser.add_argument(
        "--max-workers", type=int, default=None, help="decode thread-pool width"
    )
    parser.add_argument(
        "--drain-seconds",
        type=float,
        default=5.0,
        help="graceful-shutdown wait for in-flight requests",
    )
    parser.add_argument(
        "--default-archive",
        default=None,
        help="archive name served to clients that do not pick one "
        "(multi-archive mode; defaults to the first)",
    )
    _add_cache_arguments(parser)
    args = parser.parse_args(argv)

    from .serve import RlzServer

    single_path, archive_map = _parse_archive_args(parser, args.archive)
    if archive_map is None and args.default_archive is not None:
        parser.error("--default-archive only applies to NAME=PATH archive maps")
    config = ArchiveConfig(
        cache=_cache_spec_from_args(args),
        serve=ServeSpec(
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            drain_seconds=args.drain_seconds,
            archives=archive_map,
            default_archive=args.default_archive,
        ),
    )

    async def run() -> None:
        if archive_map is not None:
            server = RlzServer.open_many(
                archive_map,
                config,
                default=args.default_archive,
                max_workers=args.max_workers,
            )
            description = ", ".join(
                f"{name}={path}" for name, path in archive_map.items()
            )
            banner = f"serving {len(archive_map)} archives [{description}]"
        else:
            server = RlzServer.open(
                single_path, config, max_workers=args.max_workers
            )
            banner = (
                f"serving {single_path}"
                f" ({len(server.front.archive)} documents,"
                f" max {args.max_inflight} in-flight)"
            )
        await server.start()
        print(f"{banner} on {server.host}:{server.port}", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(signum, stop.set)
        try:
            await stop.wait()
        finally:
            stats = server.stats()
            await server.close()
            print(
                f"shutdown: served {int(stats.get('server_requests', 0))} requests "
                f"over {int(stats.get('server_connections_total', 0))} connections "
                f"({int(stats.get('server_errors', 0))} errors)",
                flush=True,
            )

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    except (ReproError, OSError) as exc:
        # OSError covers bind failures (port in use, bad host) and socket
        # teardown races — one-line errors, not tracebacks.
        print(f"repro serve: {exc}", file=sys.stderr)
        return 1
    return 0


def get_main(argv: Optional[Sequence[str]] = None) -> int:
    """Fetch documents from a local archive or a running server."""
    parser = argparse.ArgumentParser(
        prog="repro get",
        description=(
            "Retrieve documents by ID from an archive — a local container "
            "file, or a running `repro serve` instance via --connect.  Both "
            "paths go through the same ArchiveView code."
        ),
    )
    parser.add_argument(
        "target",
        nargs="+",
        metavar="ARCHIVE|DOC_ID",
        help="without --connect: the local container file followed by "
        "document IDs; with --connect: document IDs only",
    )
    parser.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT[,HOST:PORT...]",
        help="fetch from running repro serve instance(s) instead of a local "
        "file; a comma-separated list fans out through a consistent-hash "
        "ClusterClient",
    )
    parser.add_argument(
        "--archive",
        dest="archive_name",
        default="",
        metavar="NAME",
        help="archive name on a multi-archive server (with --connect)",
    )
    parser.add_argument(
        "--raw",
        action="store_true",
        help="write the raw document bytes to stdout (concatenated, in order)",
    )
    _add_cache_arguments(parser)
    # parse_intermixed_args collects every positional even when flags sit
    # between them (`repro get path --raw 3`), which plain parse_args cannot
    # do for a greedy nargs="+" positional.
    args = parser.parse_intermixed_args(list(argv) if argv is not None else None)

    # The first positional is the archive path unless --connect is given.
    if args.connect is None:
        args.archive, id_texts = args.target[0], args.target[1:]
        if not id_texts:
            parser.error("no document IDs given")
    else:
        args.archive, id_texts = None, args.target
    try:
        args.doc_ids = [int(text) for text in id_texts]
    except ValueError as exc:
        parser.error(f"document IDs must be integers: {exc}")

    if args.connect is not None:
        from .serve import ClusterClient, RlzClient

        if args.cache != "none":
            parser.error(
                "--cache configures a locally opened archive; the server "
                "owns the cache tier when using --connect"
            )
        endpoints = [text.strip() for text in args.connect.split(",") if text.strip()]
        for endpoint in endpoints:
            host, _, port_text = endpoint.rpartition(":")
            if not host or not port_text.isdigit():
                parser.error(f"--connect expects HOST:PORT, got {endpoint!r}")
        if not endpoints:
            parser.error(f"--connect expects HOST:PORT, got {args.connect!r}")
        if len(endpoints) == 1:
            host, _, port_text = endpoints[0].rpartition(":")
            view = RlzClient(host, int(port_text), archive=args.archive_name)
        else:
            view = ClusterClient(endpoints, archive=args.archive_name)
        source = args.connect
    else:
        if args.archive_name:
            parser.error("--archive only applies with --connect")
        config = ArchiveConfig(cache=_cache_spec_from_args(args))
        try:
            view = RlzArchive.open(args.archive, config)
        except (OSError, ReproError) as exc:
            print(f"repro get: cannot open {args.archive!r}: {exc}", file=sys.stderr)
            return 1
        source = args.archive

    status = 0
    try:
        documents = view.get_many(args.doc_ids)
        if args.raw:
            for document in documents:
                sys.stdout.buffer.write(document)
            sys.stdout.buffer.flush()
        else:
            for doc_id, document in zip(args.doc_ids, documents):
                print(f"doc {doc_id}: {len(document):,} bytes from {source}")
    except (ReproError, OSError) as exc:
        # OSError covers a dead/unreachable server after retries.
        print(f"repro get: {exc}", file=sys.stderr)
        status = 1
    finally:
        view.close()
    return status


def verify_main(argv: Optional[Sequence[str]] = None) -> int:
    """Scan container files against their embedded checksum tables."""
    parser = argparse.ArgumentParser(
        prog="repro verify",
        description=(
            "Verify the integrity of container files written by repro "
            "compress: every header section and payload extent is checked "
            "against the CRC32 table embedded at build time.  Exits 1 on "
            "the first corrupt file."
        ),
    )
    parser.add_argument(
        "paths", nargs="+", metavar="PATH", help="container file(s) to verify"
    )
    args = parser.parse_args(argv)

    from .errors import CorruptArchiveError, StorageError
    from .storage import verify_container

    status = 0
    for path in args.paths:
        try:
            report = verify_container(path)
        except CorruptArchiveError as exc:
            print(f"repro verify: CORRUPT: {exc}", file=sys.stderr)
            status = 1
        except (StorageError, OSError) as exc:
            print(f"repro verify: cannot verify {path!r}: {exc}", file=sys.stderr)
            status = 1
        else:
            print(
                f"{path}: OK ({report['store_type']} store, "
                f"{report['documents']} documents, "
                f"{report['extents_checked']} extents, "
                f"{report['bytes_checked']:,} payload bytes verified)"
            )
    return status


def partition_main(argv: Optional[Sequence[str]] = None) -> int:
    """Split a collection into per-shard partitioned containers."""
    parser = argparse.ArgumentParser(
        prog="repro partition",
        description=(
            "Build a partitioned archive: one REPRO-WARC collection in, N "
            "per-shard container files out, each holding only the doc ids "
            "its arc of the consistent-hash ring owns.  Serve each shard "
            "with `repro serve <shard>.rlz` and read the fleet with "
            "ClusterClient(['shard0@host:port', ...])."
        ),
    )
    parser.add_argument("input", help="REPRO-WARC file produced by repro-corpus")
    parser.add_argument("outdir", help="directory to write the shard containers in")
    parser.add_argument("--shards", type=int, default=2, help="number of shards")
    parser.add_argument(
        "--virtual-nodes",
        type=int,
        default=64,
        help="consistent-hash points per shard (must match the serving ring)",
    )
    parser.add_argument(
        "--per-shard-dictionary",
        action="store_true",
        help="sample one dictionary per shard from its own documents instead "
        "of one shared dictionary from the whole collection",
    )
    parser.add_argument("--scheme", default="ZZ", help="rlz pair-coding scheme (e.g. ZV)")
    parser.add_argument(
        "--dictionary-size", type=int, default=1024 * 1024, help="rlz dictionary bytes"
    )
    parser.add_argument("--sample-size", type=int, default=1024, help="rlz sample bytes")
    parser.add_argument(
        "--labels",
        default=None,
        metavar="LABEL,LABEL,...",
        help="explicit shard labels (default shard0..shardN-1); bare ring ids "
        "or ringid@host:port serving labels",
    )
    parser.add_argument(
        "--search-index",
        action="store_true",
        help="also write a <shard>.rlz.idx posting-list sidecar per shard "
        "(each covering only the documents that shard owns) so the fleet "
        "answers `repro search` / SEARCH fan-out",
    )
    args = parser.parse_args(argv)
    if args.shards <= 0:
        parser.error(f"--shards must be positive, got {args.shards}")

    from .api import DictionarySpec, EncodingSpec, PartitionSpec, SearchSpec
    from .serve.partition import build_partitioned_archives

    labels = None
    if args.labels is not None:
        labels = [text.strip() for text in args.labels.split(",") if text.strip()]
        if len(labels) != args.shards:
            parser.error(
                f"--labels names {len(labels)} shards but --shards is {args.shards}"
            )
    collection = read_warc(args.input)
    config = ArchiveConfig(
        dictionary=DictionarySpec(
            size=args.dictionary_size, sample_size=args.sample_size
        ),
        encoding=EncodingSpec(scheme=args.scheme),
        partition=PartitionSpec(
            shards=args.shards,
            virtual_nodes=args.virtual_nodes,
            shared_dictionary=not args.per_shard_dictionary,
        ),
        search=SearchSpec(enabled=args.search_index),
    )
    try:
        paths = build_partitioned_archives(collection, config, args.outdir, labels)
    except (ReproError, OSError) as exc:
        print(f"repro partition: {exc}", file=sys.stderr)
        return 1
    for label, path in paths.items():
        documents = len(RlzStore.open(path).document_map)
        print(f"{label}: {documents} documents -> {path}")
    print(
        f"partitioned {len(collection)} documents across {len(paths)} shards "
        f"(epoch 1, {args.virtual_nodes} virtual nodes)"
    )
    return 0


def rebalance_main(argv: Optional[Sequence[str]] = None) -> int:
    """Stream a new shard's arc onto it and bump the fleet's map epoch."""
    parser = argparse.ArgumentParser(
        prog="repro rebalance",
        description=(
            "Live-rebalance a running partitioned fleet: add the shard at "
            "--to (serving an empty joining container from "
            "write_spare_shard) by streaming its arc over from the current "
            "owners and installing the bumped epoch everywhere — recipient "
            "first, donors after, so reads never fail.  Resumable: re-run "
            "after a crash and already-acked documents are skipped."
        ),
    )
    parser.add_argument(
        "--endpoints",
        required=True,
        metavar="RING@HOST:PORT,...",
        help="comma-separated serving labels of every current fleet member",
    )
    parser.add_argument(
        "--to",
        required=True,
        metavar="RING@HOST:PORT",
        help="serving label of the joining shard",
    )
    parser.add_argument(
        "--batch-docs", type=int, default=32, help="documents staged per INGEST batch"
    )
    parser.add_argument(
        "--deadline-ms",
        type=int,
        default=0,
        help="per-batch deadline in milliseconds (0 = none)",
    )
    parser.add_argument(
        "--archive",
        dest="archive_name",
        default="",
        metavar="NAME",
        help="archive name on multi-archive servers",
    )
    args = parser.parse_args(argv)

    from .serve.rebalance import rebalance

    endpoints = [text.strip() for text in args.endpoints.split(",") if text.strip()]
    try:
        report = rebalance(
            endpoints,
            to=args.to,
            archive=args.archive_name,
            batch_docs=args.batch_docs,
            deadline_ms=args.deadline_ms,
        )
    except (ReproError, OSError) as exc:
        print(f"repro rebalance: {exc}", file=sys.stderr)
        return 1
    print(f"rebalance complete: {report.describe()}")
    return 0


def search_main(argv: Optional[Sequence[str]] = None) -> int:
    """BM25 search over a local archive's index or a running fleet."""
    parser = argparse.ArgumentParser(
        prog="repro search",
        description=(
            "Rank documents with BM25 against the posting-list sidecar "
            "written by `repro compress --search-index` / `repro partition "
            "--search-index`.  Without --connect the first positional is a "
            "local container path and ranking runs in-process; with "
            "--connect the query fans out over the SEARCH opcode — a "
            "comma-separated endpoint list queries every shard, exchanges "
            "global corpus statistics, and merges the per-shard top-k into "
            "exactly the single-index ranking."
        ),
    )
    parser.add_argument(
        "target",
        nargs="+",
        metavar="ARCHIVE|QUERY",
        help="without --connect: the local container file followed by the "
        "query terms; with --connect: query terms only",
    )
    parser.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT[,HOST:PORT...]",
        help="search running repro serve instance(s); a comma-separated "
        "list fans the query out across every shard",
    )
    parser.add_argument(
        "--archive",
        dest="archive_name",
        default="",
        metavar="NAME",
        help="archive name on a multi-archive server (with --connect)",
    )
    parser.add_argument("--top-k", type=int, default=10, help="results to return")
    parser.add_argument(
        "--snippet-chars",
        type=int,
        default=0,
        help="attach a query-biased snippet of this many bytes to every hit "
        "(decoded through the store's windowed partial-decode path)",
    )
    args = parser.parse_intermixed_args(list(argv) if argv is not None else None)
    if args.top_k <= 0:
        parser.error(f"--top-k must be positive, got {args.top_k}")
    if args.snippet_chars < 0:
        parser.error(f"--snippet-chars must be non-negative, got {args.snippet_chars}")

    if args.connect is not None:
        query = " ".join(args.target)
        if not query.strip():
            parser.error("no query given")
        from .serve import ClusterClient, RlzClient

        endpoints = [text.strip() for text in args.connect.split(",") if text.strip()]
        if not endpoints:
            parser.error(f"--connect expects HOST:PORT, got {args.connect!r}")
        try:
            if len(endpoints) == 1 and "@" not in endpoints[0]:
                host, _, port_text = endpoints[0].rpartition(":")
                if not host or not port_text.isdigit():
                    parser.error(f"--connect expects HOST:PORT, got {endpoints[0]!r}")
                client = RlzClient(host, int(port_text), archive=args.archive_name)
            else:
                client = ClusterClient(endpoints, archive=args.archive_name)
            try:
                hits = client.search(
                    query, top_k=args.top_k, snippet_chars=args.snippet_chars
                )
            finally:
                client.close()
        except (ReproError, OSError) as exc:
            print(f"repro search: {exc}", file=sys.stderr)
            return 1
        source = args.connect
    else:
        if args.archive_name:
            parser.error("--archive only applies with --connect")
        if len(args.target) < 2:
            parser.error("local search needs an archive path and query terms")
        archive_path, query = args.target[0], " ".join(args.target[1:])

        from .search.serving import PostingsStore, index_sidecar_path
        from .serve.protocol import SearchHit

        sidecar = index_sidecar_path(Path(archive_path))
        try:
            index = PostingsStore.open(sidecar)
        except (ReproError, OSError) as exc:
            print(
                f"repro search: cannot open search index {sidecar}: {exc} "
                f"(build it with `repro compress --search-index`)",
                file=sys.stderr,
            )
            return 1
        scored = index.search(query, top_k=args.top_k)
        hits = []
        if args.snippet_chars > 0 and scored:
            try:
                archive = RlzArchive.open(archive_path)
            except (ReproError, OSError) as exc:
                print(f"repro search: cannot open {archive_path!r}: {exc}", file=sys.stderr)
                return 1
            try:
                for hit in scored:
                    start = max(0, hit.hit_offset - args.snippet_chars // 2)
                    snippet = archive.store.get_window(
                        hit.doc_id, start, args.snippet_chars
                    )
                    hits.append(
                        SearchHit(
                            doc_id=hit.doc_id,
                            score=hit.score,
                            snippet=snippet,
                            snippet_start=start,
                        )
                    )
            finally:
                archive.close()
        else:
            hits = [SearchHit(doc_id=hit.doc_id, score=hit.score) for hit in scored]
        source = archive_path

    if not hits:
        print(f"no results for {query!r} from {source}")
        return 0
    for rank, hit in enumerate(hits, start=1):
        line = f"{rank:3d}. doc {hit.doc_id}  score {hit.score:.4f}"
        if hit.snippet:
            text = hit.snippet.decode("utf-8", "replace").replace("\n", " ")
            line += f"  …{text}…"
        print(line)
    return 0


def _archive_stats(path: str, exercise: int) -> int:
    """``repro stats --archive``: suffix-array acceleration accounting.

    Prints the dictionary suffix array's :meth:`acceleration_stats` and the
    compact jump index's probe-cache counters.  Counters are process-local,
    so ``--exercise N`` decodes and re-factorizes the first N stored
    documents to generate representative probe traffic first.  The jump
    index and its counters belong to the Python match engine, so that
    traffic runs on it; the native factorize kernel is never compiled or
    loaded here.
    """
    from .api import RlzArchive
    from .core import RlzFactorizer, native

    try:
        archive = RlzArchive.open(path)
    except (ReproError, OSError) as exc:
        print(f"repro stats: {exc}", file=sys.stderr)
        return 1
    try:
        dictionary = archive.store.dictionary
        suffix_array = dictionary.suffix_array
        exercised = 0
        if exercise:
            factorizer = RlzFactorizer(dictionary)
            with native.python_match_engine():
                for doc_id in archive.doc_ids()[:exercise]:
                    for _ in factorizer.iter_factors(archive.get(doc_id)):
                        pass
                    exercised += 1
        stats = suffix_array.acceleration_stats()
        probe = suffix_array.probe_cache_info()
    finally:
        archive.close()
    print(f"{path} suffix-array acceleration:")
    for key in sorted(stats):
        print(f"  {key}={stats[key]}")
    print(f"{path} jump-index probe cache (process-local counters):")
    for key in sorted(probe):
        print(f"  {key}={probe[key]}")
    if exercise:
        print(f"  (after re-factorizing {exercised} documents)")
    return 0


def stats_main(argv: Optional[Sequence[str]] = None) -> int:
    """Show a running server's load snapshot (HEALTH opcode)."""
    parser = argparse.ArgumentParser(
        prog="repro stats",
        description=(
            "Print a running `repro serve` instance's per-archive load "
            "snapshot — queue depth, service-time EWMA, deadline/busy "
            "rejections, shard-map epoch — via the HEALTH opcode, which is "
            "answered outside the backpressure gate so it works even while "
            "the server is saturated.  --watch N refreshes every N seconds."
        ),
    )
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="address of the running server",
    )
    parser.add_argument(
        "--archive",
        metavar="PATH",
        help="local mode: print the archive dictionary's suffix-array "
        "acceleration stats and jump-index probe-cache counters instead "
        "of a server snapshot",
    )
    parser.add_argument(
        "--exercise",
        type=int,
        default=0,
        metavar="DOCS",
        help="with --archive: re-factorize the first DOCS stored documents "
        "on the Python match engine first, so the probe-cache counters "
        "reflect real traffic (the native factorize kernel has no jump index "
        "or probe cache)",
    )
    parser.add_argument(
        "--watch",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="refresh every SECONDS until interrupted (0 = print once)",
    )
    args = parser.parse_args(argv)
    if (args.connect is None) == (args.archive is None):
        parser.error("exactly one of --connect or --archive is required")
    if args.exercise < 0:
        parser.error(f"--exercise must be non-negative, got {args.exercise}")

    if args.archive is not None:
        return _archive_stats(args.archive, args.exercise)

    import time as _time

    from .serve import RlzClient

    host, _, port_text = args.connect.rpartition(":")
    if not host or not port_text.isdigit():
        parser.error(f"--connect expects HOST:PORT, got {args.connect!r}")
    if args.watch < 0:
        parser.error(f"--watch must be non-negative, got {args.watch}")

    client = RlzClient(host, int(port_text))
    try:
        while True:
            try:
                health = client.health()
            except (ReproError, OSError) as exc:
                print(f"repro stats: {exc}", file=sys.stderr)
                return 1
            for name, snapshot in sorted(health.items()):
                label = name or "(default)"
                print(
                    f"{args.connect} {label}: "
                    f"open={int(snapshot.get('open', 0))} "
                    f"epoch={int(snapshot.get('epoch', 0))} "
                    f"active={int(snapshot.get('active', 0))} "
                    f"waiting={int(snapshot.get('waiting', 0))} "
                    f"ewma_ms={snapshot.get('ewma_ms', 0.0):.2f} "
                    f"requests={int(snapshot.get('requests', 0))} "
                    f"busy={int(snapshot.get('busy_rejections', 0))} "
                    f"deadline={int(snapshot.get('deadline_rejections', 0))} "
                    f"wrong_shard={int(snapshot.get('wrong_shard_rejections', 0))} "
                    f"overlay={int(snapshot.get('overlay_documents', 0))} "
                    f"decode_kernel={snapshot.get('decode_kernel', '?')}",
                    flush=True,
                )
            if not args.watch:
                return 0
            _time.sleep(args.watch)
    except KeyboardInterrupt:
        return 0
    finally:
        client.close()


def check_main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the project's static-analysis pass (see repro.analysis)."""
    parser = argparse.ArgumentParser(
        prog="repro check",
        description=(
            "Run the AST-based project-invariant checkers (protocol "
            "registry, async purity, lock discipline, API-surface drift) "
            "over the repro source tree.  Exits 1 when new findings exist; "
            "findings recorded in --baseline or suppressed with a "
            "'# repro: ignore[check-id]' comment do not fail the run."
        ),
    )
    parser.add_argument(
        "root",
        nargs="?",
        default=None,
        metavar="PATH",
        help="source tree to analyse (default: src/repro, else the installed package)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report instead of text",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="baseline file of known findings to mask (JSON)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline with the current findings and exit 0",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        default=None,
        help="comma-separated check ids to run (default: all)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list registered checkers and exit",
    )
    args = parser.parse_args(argv)

    from .analysis import default_checkers, run_checks, write_baseline
    from .analysis.runner import default_root

    checkers = default_checkers()
    if args.list:
        width = max(len(c.check_id) for c in checkers)
        for checker in checkers:
            print(f"{checker.check_id:<{width}}  {checker.description}")
        return 0

    if args.select is not None:
        wanted = {part.strip() for part in args.select.split(",") if part.strip()}
        known = {c.check_id for c in checkers}
        unknown = wanted - known
        if unknown:
            parser.error(
                f"unknown check ids: {', '.join(sorted(unknown))} "
                f"(expected some of: {', '.join(sorted(known))})"
            )
        checkers = [c for c in checkers if c.check_id in wanted]
    if args.update_baseline and args.baseline is None:
        parser.error("--update-baseline requires --baseline PATH")

    root = Path(args.root) if args.root is not None else default_root()
    if not root.is_dir():
        print(f"repro check: no such source tree: {root}", file=sys.stderr)
        return 2

    if args.update_baseline:
        report = run_checks(root, checkers=checkers)
        write_baseline(Path(args.baseline), report.findings)
        noun = "finding" if len(report.findings) == 1 else "findings"
        print(f"wrote {len(report.findings)} {noun} to {args.baseline}")
        return 0

    baseline = Path(args.baseline) if args.baseline is not None else None
    report = run_checks(root, checkers=checkers, baseline_path=baseline)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_text())
    return 0 if report.ok else 1


_SUBCOMMANDS = {
    "corpus": corpus_main,
    "compress": compress_main,
    "bench": bench_main,
    "serve-bench": serve_bench_main,
    "bench-load": bench_load_main,
    "serve": serve_main,
    "get": get_main,
    "verify": verify_main,
    "partition": partition_main,
    "rebalance": rebalance_main,
    "search": search_main,
    "stats": stats_main,
    "check": check_main,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Umbrella entry point: ``repro <corpus|compress|bench> [args...]``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        names = " | ".join(sorted(_SUBCOMMANDS))
        usage = f"usage: repro {{{names}}} [options...]"
        if argv:
            print(usage)
            return 0
        print(usage, file=sys.stderr)
        return 2
    command = argv[0]
    handler = _SUBCOMMANDS.get(command)
    if handler is None:
        names = ", ".join(sorted(_SUBCOMMANDS))
        print(f"repro: unknown command {command!r} (expected one of: {names})", file=sys.stderr)
        return 2
    return handler(argv[1:])
