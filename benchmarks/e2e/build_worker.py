"""Build the benchmark archive in a process of its own and report on it.

Usage: ``build_worker.py ARCHIVE SCALE [--spans FILE]``

Generates the corpus, runs ``RlzArchive.build`` (dictionary sampling,
suffix array, parallel encode, container write, postings sidecar) and
prints one JSON object: the build time, the container size as a share of
the corpus, the corpus digest and the peak resident memory of this process
and of its encode workers.  A process of its own keeps the build's memory
peak apart from the load generator's.

With ``--spans`` every build stage is traced to FILE, and a serial pass over
every 20th document times factorization against pair coding and reports
factor statistics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import common


def sample_pass(archive_path: Path, collection) -> dict:
    """Serial factorize + encode over a 5% document sample."""
    from repro import PairEncoder, RlzFactorizer, RlzStore

    with RlzStore.open(archive_path) as store:
        dictionary = store.dictionary
    factorizer = RlzFactorizer(dictionary)
    encoder = PairEncoder(common.SCHEME)
    factorizer.factorize_streams(b"warm")  # builds the acceleration state
    documents = [document.content for document in collection][::20]
    factorize_s = encode_s = 0.0
    factors = literals = size = 0
    for content in documents:
        start = time.perf_counter()
        positions, lengths = factorizer.factorize_streams(content)
        middle = time.perf_counter()
        encoder.encode_streams(positions, lengths)
        factorize_s += middle - start
        encode_s += time.perf_counter() - middle
        factors += len(lengths)
        literals += lengths.count(0)
        size += len(content)
    total = factorize_s + encode_s
    return {
        "factorize_share": factorize_s / total,
        "encode_share": encode_s / total,
        "avg_factor_len": size / factors,
        "literal_pct": 100.0 * literals / size,
    }


def main(argv) -> int:
    archive_path = Path(argv[0])
    scale = {"full": common.FULL, "smoke": common.SMOKE}[argv[1]]
    spans_path = argv[3] if len(argv) > 3 and argv[2] == "--spans" else None
    common.require_source()
    from repro import RlzArchive

    tracer = None
    if spans_path:
        import spans

        tracer = spans.Tracer()
        spans.install_build_wrappers(tracer)

    collection = common.make_corpus(scale.documents)
    corpus_bytes = collection.total_size
    start = time.perf_counter()
    RlzArchive.build(collection, common.archive_config(scale), archive_path).close()
    build_s = time.perf_counter() - start
    workers_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report = {
        "digest": common.corpus_digest(collection),
        "documents": len(collection),
        "corpus_bytes": corpus_bytes,
        "build_s": build_s,
        "stored_pct": 100.0 * archive_path.stat().st_size / corpus_bytes,
        "rss_mb": max(common.peak_rss_mb(), workers_kb / 1024.0),
    }
    if tracer is not None:
        tracer.dump(spans_path)
        report["sample"] = sample_pass(archive_path, collection)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
