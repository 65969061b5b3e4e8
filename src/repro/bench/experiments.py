"""Experiment implementations: one function per table / figure in the paper.

Every function returns a :class:`repro.bench.reporting.ResultTable` whose
rows mirror the corresponding table in the paper (same row identities, same
column meanings), measured on the synthetic collections at the current
:class:`repro.bench.scale.BenchScale`.  The benchmark scripts under
``benchmarks/`` are thin wrappers that call these functions, print the
tables and record timings; EXPERIMENTS.md records the paper-vs-measured
comparison for each.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..baselines import build_ascii_baseline, build_blocked_baseline
from ..core import (
    DictionaryConfig,
    DictionaryUsage,
    FactorStatistics,
    PAPER_SCHEMES,
    PairEncoder,
    RlzFactorizer,
    build_dictionary,
    simulate_prefix_dictionaries,
)
from ..core.compressor import CompressedCollection, CompressedDocument
from ..corpus.document import DocumentCollection
from ..search import AccessPatterns
from ..storage import BlockedStore, RawStore, RlzStore
from .reporting import ResultTable
from .retrieval import measure_retrieval
from .scale import BenchScale, PAPER_DICTIONARY_LABELS, PAPER_SAMPLE_SIZES, current_scale

__all__ = [
    "dictionary_statistics_table",
    "length_histogram_figure",
    "rlz_retrieval_table",
    "baseline_retrieval_table",
    "dynamic_update_table",
    "acceleration_ablation_table",
    "codec_ablation_table",
    "sampling_policy_ablation_table",
    "pruning_ablation_table",
]


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _factorize_collection(collection: DocumentCollection, dictionary) -> tuple:
    """Factorize every document; return (factorizations, stats, usage)."""
    factorizer = RlzFactorizer(dictionary)
    stats = FactorStatistics()
    usage = DictionaryUsage(dictionary)
    factorizations = []
    for document in collection:
        factorization = factorizer.factorize(document.content)
        factorizations.append(factorization)
        stats.add(factorization)
        usage.add(factorization)
    return factorizations, stats, usage


def _encode_collection(
    collection: DocumentCollection,
    dictionary,
    factorizations,
    scheme: str,
) -> CompressedCollection:
    """Encode pre-computed factorizations under ``scheme``."""
    encoder = PairEncoder(scheme)
    documents = [
        CompressedDocument(
            doc_id=document.doc_id,
            data=encoder.encode(factorization),
            original_size=document.size,
        )
        for document, factorization in zip(collection, factorizations)
    ]
    return CompressedCollection(
        dictionary=dictionary,
        scheme_name=scheme,
        documents=documents,
        collection_name=collection.name,
    )


def _workdir(output_dir: Optional[str | Path]) -> Path:
    if output_dir is None:
        return Path(tempfile.mkdtemp(prefix="repro-bench-"))
    path = Path(output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ----------------------------------------------------------------------
# Tables 2 and 3: dictionary statistics
# ----------------------------------------------------------------------
def dictionary_statistics_table(
    collection: DocumentCollection,
    title: str,
    scale: Optional[BenchScale] = None,
    dictionary_labels: Sequence[str] = PAPER_DICTIONARY_LABELS,
    sample_sizes_kb: Sequence[float] = PAPER_SAMPLE_SIZES,
) -> ResultTable:
    """Average factor length and unused dictionary bytes (Tables 2 / 3).

    The paper's grid is dictionary size {2.0, 1.0, 0.5} GB x sample size
    {0.5, 1, 2, 5} KB; the scaled dictionary sizes come from the current
    benchmark scale.
    """
    scale = scale or current_scale()
    table = ResultTable(
        title=title,
        headers=["Size (label GB)", "Dict bytes", "Samp. (KB)", "Avg.Fact.", "Unused (%)"],
    )
    for label in dictionary_labels:
        dictionary_size = scale.dictionary_sizes[label]
        for sample_kb in sample_sizes_kb:
            config = DictionaryConfig(
                size=dictionary_size, sample_size=max(64, int(sample_kb * 1024))
            )
            dictionary = build_dictionary(collection, config)
            _, stats, usage = _factorize_collection(collection, dictionary)
            table.add_row(
                label,
                len(dictionary),
                sample_kb,
                stats.average_factor_length,
                usage.unused_percentage,
            )
    table.add_note(f"collection: {collection.name}, {collection.total_size:,} bytes")
    return table


# ----------------------------------------------------------------------
# Figure 3: histogram of encoded length values
# ----------------------------------------------------------------------
def length_histogram_figure(
    collection: DocumentCollection,
    scale: Optional[BenchScale] = None,
    sample_sizes: Sequence[int] = (512, 1024, 2048, 5120, 10240),
    dictionary_label: str = "0.5",
) -> ResultTable:
    """Frequency histogram of length values per sample period (Figure 3)."""
    scale = scale or current_scale()
    dictionary_size = scale.dictionary_sizes[dictionary_label]
    bins = ["literal", "[1, 10)", "[10, 100)", "[100, 1000)", "[1000, 10000)", ">= 10000"]
    table = ResultTable(
        title="Figure 3: frequency of encoded length values by sample period",
        headers=["Sample"] + bins,
    )
    for sample_size in sample_sizes:
        config = DictionaryConfig(size=dictionary_size, sample_size=sample_size)
        dictionary = build_dictionary(collection, config)
        _, stats, _ = _factorize_collection(collection, dictionary)
        counts = {label: 0 for label in bins}
        for length, count in stats.length_counts.items():
            if length == 0:
                counts["literal"] += count
            elif length < 10:
                counts["[1, 10)"] += count
            elif length < 100:
                counts["[10, 100)"] += count
            elif length < 1000:
                counts["[100, 1000)"] += count
            elif length < 10000:
                counts["[1000, 10000)"] += count
            else:
                counts[">= 10000"] += count
        label = f"{sample_size}B" if sample_size < 1024 else f"{sample_size // 1024}KB"
        table.add_row(label, *[counts[bin_label] for bin_label in bins])
    table.add_note(
        "paper shape: the bulk of length values is small irrespective of sample period"
    )
    return table


# ----------------------------------------------------------------------
# Tables 4, 5, 8: rlz compression and retrieval speed
# ----------------------------------------------------------------------
def rlz_retrieval_table(
    collection: DocumentCollection,
    title: str,
    scale: Optional[BenchScale] = None,
    schemes: Sequence[str] = PAPER_SCHEMES,
    dictionary_labels: Sequence[str] = PAPER_DICTIONARY_LABELS,
    output_dir: Optional[str | Path] = None,
    patterns: Optional[AccessPatterns] = None,
) -> ResultTable:
    """Enc %, sequential and query-log docs/sec for rlz (Tables 4, 5, 8)."""
    scale = scale or current_scale()
    workdir = _workdir(output_dir)
    patterns = patterns or AccessPatterns(
        collection, num_requests=scale.num_requests, num_queries=scale.num_queries
    )
    sequential = patterns.sequential
    query_log = patterns.query_log

    table = ResultTable(
        title=title,
        headers=["Size (label GB)", "Pos-Len", "Enc. (%)", "Sequential", "Query Log"],
    )
    for label in dictionary_labels:
        dictionary_size = scale.dictionary_sizes[label]
        config = DictionaryConfig(
            size=dictionary_size, sample_size=scale.default_sample_size
        )
        dictionary = build_dictionary(collection, config)
        factorizations, _, _ = _factorize_collection(collection, dictionary)
        for scheme in schemes:
            compressed = _encode_collection(collection, dictionary, factorizations, scheme)
            path = workdir / f"rlz-{collection.name}-{label}-{scheme}.repro"
            RlzStore.write(compressed, path)
            with RlzStore.open(path) as store:
                sequential_rate = measure_retrieval(store, sequential).docs_per_second
                query_rate = measure_retrieval(store, query_log).docs_per_second
                encoding_percent = store.compression_percent(include_dictionary=False)
            table.add_row(label, scheme, encoding_percent, sequential_rate, query_rate)
    table.add_note(
        "Enc. (%) excludes the shared dictionary; see EXPERIMENTS.md for the scaling note"
    )
    table.add_note(f"requests per pattern: {len(sequential)}")
    return table


# ----------------------------------------------------------------------
# Tables 6, 7, 9: baseline compression and retrieval speed
# ----------------------------------------------------------------------
def baseline_retrieval_table(
    collection: DocumentCollection,
    title: str,
    scale: Optional[BenchScale] = None,
    compressors: Sequence[str] = ("zlib", "lzma"),
    output_dir: Optional[str | Path] = None,
    patterns: Optional[AccessPatterns] = None,
) -> ResultTable:
    """Enc %, sequential and query-log docs/sec for the baselines (Tables 6, 7, 9)."""
    scale = scale or current_scale()
    workdir = _workdir(output_dir)
    patterns = patterns or AccessPatterns(
        collection, num_requests=scale.num_requests, num_queries=scale.num_queries
    )
    sequential = patterns.sequential
    query_log = patterns.query_log

    table = ResultTable(
        title=title,
        headers=["Alg.", "Block (MB)", "Enc. (%)", "Sequential", "Query Log"],
    )

    ascii_path = build_ascii_baseline(collection, workdir / f"ascii-{collection.name}.repro")
    with RawStore.open(ascii_path) as store:
        table.add_row(
            "ascii",
            "-",
            100.0,
            measure_retrieval(store, sequential).docs_per_second,
            measure_retrieval(store, query_log).docs_per_second,
        )

    for compressor in compressors:
        for block_mb in scale.block_sizes_mb:
            path = workdir / f"{compressor}-{collection.name}-{block_mb}.repro"
            build_blocked_baseline(collection, path, compressor, block_mb)
            with BlockedStore.open(path) as store:
                table.add_row(
                    compressor,
                    f"{block_mb:.1f}",
                    store.compression_percent(),
                    measure_retrieval(store, sequential).docs_per_second,
                    measure_retrieval(store, query_log).docs_per_second,
                )
    table.add_note(f"requests per pattern: {len(sequential)}")
    return table


# ----------------------------------------------------------------------
# Table 10: dynamic updates via prefix dictionaries
# ----------------------------------------------------------------------
def dynamic_update_table(
    collection: DocumentCollection,
    scale: Optional[BenchScale] = None,
    dictionary_label: str = "1.0",
    scheme: str = "ZZ",
    prefixes: Sequence[float] = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.01),
) -> ResultTable:
    """Compression with dictionaries built from collection prefixes (Table 10)."""
    scale = scale or current_scale()
    dictionary_size = scale.dictionary_sizes[dictionary_label]
    results = simulate_prefix_dictionaries(
        collection,
        dictionary_size=dictionary_size,
        sample_size=scale.default_sample_size,
        prefixes=prefixes,
        scheme=scheme,
    )
    table = ResultTable(
        title=f"Table 10: {scheme} compression with prefix-built dictionaries "
        f"({collection.name})",
        headers=["Prefix %", "Encoding %"],
    )
    for result in results:
        table.add_row(result.prefix_percent, result.compression_percent)
    table.add_note("encoding % includes the dictionary, as a fixed additive cost per row")
    return table


# ----------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md)
# ----------------------------------------------------------------------
def acceleration_ablation_table(
    collection: DocumentCollection,
    scale: Optional[BenchScale] = None,
    dictionary_label: str = "0.5",
    sample_documents: int = 12,
) -> ResultTable:
    """Accelerated vs faithful factorization: identical parses, different speed."""
    import time

    scale = scale or current_scale()
    config = DictionaryConfig(
        size=scale.dictionary_sizes[dictionary_label],
        sample_size=scale.default_sample_size,
    )
    documents = [collection[i].content for i in range(min(sample_documents, len(collection)))]

    table = ResultTable(
        title="Ablation: greedy-parse acceleration of the factorizer",
        headers=["Mode", "Docs", "Factors", "Seconds", "MB/s"],
    )
    parses = {}
    for mode, accelerated in (("accelerated", True), ("faithful", False)):
        dictionary = build_dictionary(collection, config, accelerated=accelerated)
        factorizer = RlzFactorizer(dictionary)
        start = time.perf_counter()
        factorizations = [factorizer.factorize(document) for document in documents]
        elapsed = time.perf_counter() - start
        total_bytes = sum(len(document) for document in documents)
        parses[mode] = [[f.length for f in fz] for fz in factorizations]
        table.add_row(
            mode,
            len(documents),
            sum(len(fz) for fz in factorizations),
            elapsed,
            total_bytes / elapsed / 1e6 if elapsed else 0.0,
        )
    identical = parses["accelerated"] == parses["faithful"]
    table.add_note(f"parses identical across modes: {identical}")
    return table


def codec_ablation_table(
    collection: DocumentCollection,
    scale: Optional[BenchScale] = None,
    dictionary_label: str = "1.0",
    schemes: Sequence[str] = ("ZZ", "ZV", "UZ", "UV", "UG", "UD", "US", "UP", "VV"),
) -> ResultTable:
    """Factor-stream size under the paper's and the future-work codecs."""
    scale = scale or current_scale()
    config = DictionaryConfig(
        size=scale.dictionary_sizes[dictionary_label],
        sample_size=scale.default_sample_size,
    )
    dictionary = build_dictionary(collection, config)
    factorizations, _, _ = _factorize_collection(collection, dictionary)
    original = collection.total_size
    table = ResultTable(
        title="Ablation: pair-coding schemes (including Section 6 future-work codecs)",
        headers=["Scheme", "Encoded bytes", "Enc. (%)"],
    )
    for scheme in schemes:
        compressed = _encode_collection(collection, dictionary, factorizations, scheme)
        table.add_row(
            scheme,
            compressed.encoded_size,
            100.0 * compressed.encoded_size / original,
        )
    return table


def pruning_ablation_table(
    collection: DocumentCollection,
    scale: Optional[BenchScale] = None,
    dictionary_label: str = "1.0",
    scheme: str = "ZV",
    passes: int = 2,
) -> ResultTable:
    """Single-pass sampling vs iterative prune-and-resample (Section 6 idea)."""
    from ..core import iterative_resample
    from ..core.dictionary import RlzDictionary

    scale = scale or current_scale()
    config = DictionaryConfig(
        size=scale.dictionary_sizes[dictionary_label],
        sample_size=scale.default_sample_size,
    )
    table = ResultTable(
        title="Ablation: dictionary pruning / iterative resampling (Section 6 future work)",
        headers=["Dictionary", "Dict bytes", "Avg.Fact.", "Unused (%)", "Enc. (%)"],
    )

    def add_row(label: str, dictionary: "RlzDictionary") -> None:
        factorizations, stats, usage = _factorize_collection(collection, dictionary)
        compressed = _encode_collection(collection, dictionary, factorizations, scheme)
        table.add_row(
            label,
            len(dictionary),
            stats.average_factor_length,
            usage.unused_percentage,
            100.0 * compressed.encoded_size / collection.total_size,
        )

    add_row("single-pass (paper)", build_dictionary(collection, config))
    resampled, reports = iterative_resample(collection, config, passes=passes)
    add_row(f"resampled x{len(reports)}", resampled)
    table.add_note(
        "resampling removes unused dictionary runs and refills them with new samples"
    )
    return table


def sampling_policy_ablation_table(
    collection: DocumentCollection,
    scale: Optional[BenchScale] = None,
    dictionary_label: str = "1.0",
    scheme: str = "ZV",
) -> ResultTable:
    """Uniform interval sampling vs whole-document random sampling."""
    scale = scale or current_scale()
    size = scale.dictionary_sizes[dictionary_label]
    table = ResultTable(
        title="Ablation: dictionary sampling policy",
        headers=["Policy", "Dict bytes", "Avg.Fact.", "Unused (%)", "Enc. (%)"],
    )
    for policy in ("uniform", "random_documents"):
        config = DictionaryConfig(
            size=size,
            sample_size=scale.default_sample_size,
            policy=policy,
            seed=3,
        )
        dictionary = build_dictionary(collection, config)
        factorizations, stats, usage = _factorize_collection(collection, dictionary)
        compressed = _encode_collection(collection, dictionary, factorizations, scheme)
        table.add_row(
            policy,
            len(dictionary),
            stats.average_factor_length,
            usage.unused_percentage,
            100.0 * compressed.encoded_size / collection.total_size,
        )
    return table
