"""Storage-engineering scenario: choose a document store for an archive.

An engineer sizing a document storage tier wants the trade-off curve the
paper's Tables 4-9 describe: for each candidate configuration, how much disk
does it use and how fast can it serve sequential scans and random (query-log)
lookups?  This script sweeps a small grid — RLZ with the four pair codings,
blocked zlib/lzma at several block sizes, and the raw store — over one
synthetic collection and prints a single comparison table.

This example deliberately stays on the **legacy pipeline** (``RlzStore``
assembled by hand from factorizations, per-call kwargs instead of
``ArchiveConfig``) because it exercises the pieces individually.  See
``examples/quickstart.py`` for the facade version of this workflow.

Run with ``python examples/storage_tradeoffs.py``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import DictionaryConfig, generate_gov_collection
from repro.bench import ResultTable, measure_retrieval
from repro.baselines import build_ascii_baseline, build_blocked_baseline
from repro.core import PAPER_SCHEMES, PairEncoder, RlzFactorizer, build_dictionary
from repro.core.compressor import CompressedCollection, CompressedDocument
from repro.search import AccessPatterns
from repro.storage import BlockedStore, RawStore, RlzStore


def main() -> None:
    collection = generate_gov_collection(
        num_documents=120, target_document_size=10 * 1024, seed=31
    )
    patterns = AccessPatterns(collection, num_requests=400, num_queries=80)
    table = ResultTable(
        title=f"Storage trade-offs on {collection.name} "
        f"({collection.total_size / 1e6:.1f} MB, {len(collection)} docs)",
        headers=["System", "Enc. (%)", "Sequential docs/s", "Query-log docs/s"],
    )

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)

        # --- rlz, one factorization reused for all four pair codings -------
        dictionary = build_dictionary(
            collection, DictionaryConfig(size=collection.total_size // 40, sample_size=1024)
        )
        factorizer = RlzFactorizer(dictionary)
        factorizations = [factorizer.factorize(document.content) for document in collection]
        for scheme in PAPER_SCHEMES:
            encoder = PairEncoder(scheme)
            compressed = CompressedCollection(
                dictionary=dictionary,
                scheme_name=scheme,
                documents=[
                    CompressedDocument(doc.doc_id, encoder.encode(fz), doc.size)
                    for doc, fz in zip(collection, factorizations)
                ],
                collection_name=collection.name,
            )
            path = RlzStore.write(compressed, tmp_path / f"rlz-{scheme}.repro")
            with RlzStore.open(path) as store:
                table.add_row(
                    f"rlz {scheme}",
                    store.compression_percent(include_dictionary=True),
                    measure_retrieval(store, patterns.sequential).docs_per_second,
                    measure_retrieval(store, patterns.query_log).docs_per_second,
                )

        # --- blocked baselines ---------------------------------------------
        for compressor in ("zlib", "lzma"):
            for block_mb in (0.0, 0.2, 1.0):
                path = build_blocked_baseline(
                    collection, tmp_path / f"{compressor}-{block_mb}.repro", compressor, block_mb
                )
                with BlockedStore.open(path) as store:
                    table.add_row(
                        f"{compressor} {block_mb:.1f}MB blocks",
                        store.compression_percent(),
                        measure_retrieval(store, patterns.sequential).docs_per_second,
                        measure_retrieval(store, patterns.query_log).docs_per_second,
                    )

        # --- raw ascii -------------------------------------------------------
        path = build_ascii_baseline(collection, tmp_path / "ascii.repro")
        with RawStore.open(path) as store:
            table.add_row(
                "ascii (uncompressed)",
                100.0,
                measure_retrieval(store, patterns.sequential).docs_per_second,
                measure_retrieval(store, patterns.query_log).docs_per_second,
            )

    table.print()
    print(
        "\nReading the table: rlz holds compression close to the big-block adaptive\n"
        "compressors while serving random lookups at per-document granularity —\n"
        "the trade-off the paper's evaluation establishes at web scale."
    )


if __name__ == "__main__":
    main()
